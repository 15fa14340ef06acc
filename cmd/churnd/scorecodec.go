package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"telcochurn/internal/serve"
)

// The /v1/score codec: a recognizer for the two request shapes and an
// appender for the reply, both over pooled buffers. They exist because
// encoding/json's reflection costs more than the tree walk on a single-id
// request. Neither changes a byte on the wire: a body the recognizer does
// not accept goes to decodeBody's encoding/json path unchanged, and the
// appender renders exactly what json.Marshal renders for scoreResponse
// (TestScoreAppenderMatchesMarshal, FuzzScoreRequest).

// bufPool holds request and reply buffers, /v1/events bodies included. A
// buffer that grew past maxPooledBuf (a batch near the -queue bound, a
// large event batch) is dropped rather than kept.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		bufPool.Put(bp)
	}
}

// readBody reads a whole request body of at most limit bytes through
// http.MaxBytesReader into buf. On a read error (a *http.MaxBytesError for
// a body over the cap) it returns the bytes read so far with the error.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errAfter replays a body prefix that was already read, then the error the
// read ended with, so decodeBody sees the same bytes and the same failure a
// streaming read of the original body would have.
type errAfter struct {
	b   []byte
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	if len(e.b) == 0 {
		if e.err == nil {
			return 0, io.EOF
		}
		return 0, e.err
	}
	n := copy(p, e.b)
	e.b = e.b[n:]
	return n, nil
}

// parseScoreRequest recognizes exactly {"id":N} and {"ids":[N,...]} (at
// least one id) with JSON whitespace anywhere between tokens and every N a
// JSON integer that fits int64. single reports the "id" form, whose id is
// returned in id; the "ids" form returns its ids in ids. ok is false for
// every other body — an upper-case or escaped key, a repeated key, a float,
// an empty list, anything after the closing brace — which then takes
// encoding/json's path, so the set of accepted bodies and every error text
// stay encoding/json's.
func parseScoreRequest(b []byte) (id int64, ids []int64, single, ok bool) {
	p := serve.NewScanner(b)
	if !p.Lit("{") {
		return 0, nil, false, false
	}
	switch {
	case p.Key("id"):
		single = true
	case p.Key("ids"):
	default:
		return 0, nil, false, false
	}
	if single {
		if id, ok = p.Int(); !ok {
			return 0, nil, false, false
		}
	} else {
		if !p.Lit("[") {
			return 0, nil, false, false
		}
		// Sized by the commas ahead, capped so a body of commas cannot ask
		// for eight times its own size.
		ids = make([]int64, 0, min(1+bytes.Count(p.Rest(), []byte{','}), 1024))
		for {
			v, ok := p.Int()
			if !ok {
				return 0, nil, false, false
			}
			ids = append(ids, v)
			if !p.Lit(",") {
				break
			}
		}
		if !p.Lit("]") {
			return 0, nil, false, false
		}
	}
	if !p.Lit("}") {
		return 0, nil, false, false
	}
	return id, ids, single, p.End()
}

// appendScoreResponse appends json.Marshal's rendering of
// scoreResponse{Model, Month, Score or Scores, Degraded} plus the trailing
// newline writeJSON adds. modelJSON is the model name already rendered as
// a JSON string. single selects the "score" field (score) over "scores"
// (scores). ok is false if a score is NaN or ±Inf, which JSON cannot carry.
func appendScoreResponse(dst, modelJSON []byte, month int, single bool, score float64, scores []float64, degraded string) (_ []byte, ok bool) {
	dst = append(dst, `{"model":`...)
	dst = append(dst, modelJSON...)
	dst = append(dst, `,"month":`...)
	dst = strconv.AppendInt(dst, int64(month), 10)
	if single {
		dst = append(dst, `,"score":`...)
		if dst, ok = appendFloat(dst, score); !ok {
			return dst, false
		}
	} else {
		dst = append(dst, `,"scores":[`...)
		for i, f := range scores {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendFloat(dst, f); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if degraded != "" {
		s, _ := json.Marshal(degraded) // a string always marshals
		dst = append(dst, `,"degraded":`...)
		dst = append(dst, s...)
	}
	return append(dst, "}\n"...), true
}

// appendFloat renders f the way encoding/json renders a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded (e-7, not e-07).
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

package serve

import (
	"strconv"
	"unicode/utf8"
)

// Scanner walks a JSON body token by token for the request recognizers
// that skip encoding/json on the shapes they know: DecodeEventTables here
// and churnd's /v1/score parser. Every method skips JSON whitespace first
// and reports whether the body continues with what it asks for, so one
// copy of JSON's whitespace, string and number rules serves both. A
// recognizer that meets anything else declines the body and leaves it to
// encoding/json.
type Scanner struct {
	b []byte
	i int
}

// NewScanner returns a Scanner at the start of b.
func NewScanner(b []byte) Scanner { return Scanner{b: b} }

// space skips JSON whitespace.
func (p *Scanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// Lit consumes s if the body continues with it.
func (p *Scanner) Lit(s string) bool {
	p.space()
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// Key consumes the object key k, quoted exactly as written with no
// escape, and its colon. On a mismatch it consumes nothing.
func (p *Scanner) Key(k string) bool {
	p.space()
	at, end := p.i, p.i+len(k)+2
	if end > len(p.b) || p.b[at] != '"' || string(p.b[at+1:end-1]) != k || p.b[end-1] != '"' {
		return false
	}
	p.i = end
	if !p.Lit(":") {
		p.i = at
		return false
	}
	return true
}

// Str consumes a JSON string with no escape and returns its content: the
// bytes encoding/json decodes it to, as long as they are valid UTF-8 and
// hold no control character.
func (p *Scanner) Str() ([]byte, bool) {
	if !p.Lit(`"`) {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// Number consumes one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (p *Scanner) Number() ([]byte, bool) {
	p.space()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case !p.digits():
		return nil, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return nil, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// digits consumes one or more decimal digits.
func (p *Scanner) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// Int consumes a JSON number and parses it as encoding/json parses one
// into an int64: a fraction, an exponent or a value past int64 is refused.
func (p *Scanner) Int() (int64, bool) {
	n, ok := p.Number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(n), 10, 64)
	return v, err == nil
}

// Rest returns the bytes not yet consumed.
func (p *Scanner) Rest() []byte { return p.b[p.i:] }

// End skips trailing whitespace and reports whether the body is consumed.
func (p *Scanner) End() bool {
	p.space()
	return p.i == len(p.b)
}

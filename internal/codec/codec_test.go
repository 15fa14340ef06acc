package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "TEST")
	w.Uvarint(42)
	w.Int(-7)
	w.Float(math.Pi)
	w.Float(math.Inf(-1))
	w.Floats([]float64{1.5, -2.25, math.SmallestNonzeroFloat64})
	w.Str("hello")
	w.Strs([]string{"a", "", "bc"})
	w.Bytes([]byte{9, 8, 7})
	n, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("Close reported %d bytes, wrote %d", n, buf.Len())
	}

	r, err := NewReaderBytes(buf.Bytes(), "TEST")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Uvarint(); v != 42 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("int = %d", v)
	}
	if v := r.Float(); v != math.Pi {
		t.Errorf("float = %v", v)
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Errorf("inf = %v", v)
	}
	fs := r.Floats()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.25 || fs[2] != math.SmallestNonzeroFloat64 {
		t.Errorf("floats = %v", fs)
	}
	if s := r.Str(); s != "hello" {
		t.Errorf("str = %q", s)
	}
	ss := r.Strs()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "bc" {
		t.Errorf("strs = %v", ss)
	}
	bs := r.Bytes()
	if len(bs) != 3 || bs[0] != 9 {
		t.Errorf("bytes = %v", bs)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagicAndChecksum(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "GOOD")
	w.Str("payload")
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReaderBytes(buf.Bytes(), "EVIL"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v", err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[6] ^= 0xff
	if _, err := NewReaderBytes(data, "GOOD"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped byte: err = %v", err)
	}
	if _, err := NewReaderBytes([]byte("GO"), "GOOD"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: err = %v", err)
	}
}

func TestReaderFailures(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "M")
	w.Uvarint(1 << 40) // absurd length prefix for the Len check
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReaderBytes(buf.Bytes(), "M")
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Str(); s != "" {
		t.Errorf("str on corrupt length = %q", s)
	}
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("want ErrCorrupt, got %v", err)
	}

	// Trailing garbage is rejected by Close.
	var buf2 bytes.Buffer
	w2 := NewWriter(&buf2, "M")
	w2.Uvarint(5)
	w2.Uvarint(6)
	if _, err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := NewReaderBytes(buf2.Bytes(), "M")
	if err != nil {
		t.Fatal(err)
	}
	_ = r2.Uvarint()
	if err := r2.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v", err)
	}

	// Writer spells every varint in its shortest form, so a longer spelling
	// of the same value is corrupt in each varint reader.
	for _, tc := range []struct {
		name string
		read func(*Reader)
		body []byte
	}{
		{"Uvarint", func(r *Reader) { r.Uvarint() }, []byte{0x80, 0x00}},
		{"Int", func(r *Reader) { r.Int() }, []byte{0x81, 0x00}},
		{"IntsInto", func(r *Reader) { r.IntsInto(make([]int64, 2)) }, []byte{0x02, 0x82, 0x80, 0x00}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf, "M")
		w.Write(tc.body)
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReaderBytes(buf.Bytes(), "M")
		if err != nil {
			t.Fatal(err)
		}
		tc.read(r)
		if err := r.Close(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("non-minimal %s %x: err = %v, want ErrCorrupt", tc.name, tc.body, err)
		}
	}
}

// frameOps appends random values through w and, independently, their
// encodings to body, until body holds at least size bytes. Strings and
// byte blocks run up to a block and a half, so values straddle block edges.
func frameOps(rng *rand.Rand, w *Writer, body []byte, size int) []byte {
	for len(body) < size {
		switch rng.Intn(6) {
		case 0:
			v := rng.Uint64() >> rng.Intn(64)
			w.Uvarint(v)
			body = binary.AppendUvarint(body, v)
		case 1:
			v := int64(rng.Uint64()) >> rng.Intn(64)
			w.Int(v)
			body = binary.AppendVarint(body, v)
		case 2:
			v := rng.NormFloat64()
			w.Float(v)
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
		case 3:
			s := strings.Repeat("x", rng.Intn(40))
			if rng.Intn(20) == 0 {
				s = strings.Repeat("y", rng.Intn(blockSize*3/2))
			}
			w.Str(s)
			body = append(binary.AppendUvarint(body, uint64(len(s))), s...)
		case 4:
			b := make([]byte, rng.Intn(300))
			rng.Read(b)
			w.Bytes(b)
			body = append(binary.AppendUvarint(body, uint64(len(b))), b...)
		case 5:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			w.Write(b)
			body = append(body, b...)
		}
	}
	return body
}

// TestWriterFramingMatchesChecksum: whatever the values and however many
// blocks the body spans, the frame is magic + body + CRC32(body), with the
// CRC taken over the whole body at once.
func TestWriterFramingMatchesChecksum(t *testing.T) {
	const magic = "TEST"
	for _, size := range []int{0, 1, 1000, blockSize - len(magic) - 8, blockSize - len(magic), blockSize + 3, 3*blockSize + 12345} {
		for seed := int64(1); seed <= 3; seed++ {
			var buf bytes.Buffer
			w := NewWriter(&buf, magic)
			body := frameOps(rand.New(rand.NewSource(seed)), w, nil, size)
			n, err := w.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := binary.LittleEndian.AppendUint32(append([]byte(magic), body...), crc32.ChecksumIEEE(body))
			if !bytes.Equal(buf.Bytes(), want) || n != int64(len(want)) {
				t.Fatalf("size %d seed %d: frame of %d bytes (Close says %d) differs from magic+body+crc (%d bytes)", size, seed, buf.Len(), n, len(want))
			}
		}
	}
}

// countingWriter records the size of every Write it receives.
type countingWriter struct{ writes []int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return len(p), nil
}

// TestWriterSmallFrameOneWrite: a frame no larger than a block reaches the
// underlying writer in exactly one Write, and a larger one in one Write per
// block.
func TestWriterSmallFrameOneWrite(t *testing.T) {
	const magic = "TEV1"
	for _, size := range []int{0, 1, 500, blockSize - len(magic)} {
		var cw countingWriter
		w := NewWriter(&cw, magic)
		w.Write(make([]byte, size))
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(cw.writes) != 1 || cw.writes[0] != len(magic)+size+crcLen {
			t.Errorf("%d-byte body reached the writer as writes %v, want one of %d", size, cw.writes, len(magic)+size+crcLen)
		}
	}
	var cw countingWriter
	w := NewWriter(&cw, magic)
	w.Write(make([]byte, 2*blockSize))
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{blockSize, blockSize, len(magic) + crcLen}; !slices.Equal(cw.writes, want) {
		t.Errorf("two-block body reached the writer as writes %v, want %v", cw.writes, want)
	}
}

var errDisk = errors.New("disk failed")

// failingWriter accepts the first k bytes and fails every write after.
type failingWriter struct{ k, n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n+len(p) <= f.k {
		f.n += len(p)
		return len(p), nil
	}
	m := f.k - f.n
	f.n = f.k
	return m, errDisk
}

// TestWriterFailingSink: an underlying writer that fails at byte k, for k
// on each side of every block edge, makes Close return its error, with
// the byte count it accepted and no panic from the values written after.
func TestWriterFailingSink(t *testing.T) {
	const magic = "TEST"
	var full bytes.Buffer
	w := NewWriter(&full, magic)
	frameOps(rand.New(rand.NewSource(7)), w, nil, 3*blockSize+100)
	total, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	for edge := 0; edge < int(total); edge += blockSize {
		for _, k := range []int{edge - 1, edge, edge + 1} {
			if k < 0 {
				continue
			}
			f := &failingWriter{k: k}
			w := NewWriter(f, magic)
			frameOps(rand.New(rand.NewSource(7)), w, nil, 3*blockSize+100)
			n, err := w.Close()
			if !errors.Is(err, errDisk) || n != int64(k) {
				t.Errorf("sink failing at byte %d: Close = %d, %v; want %d, %v", k, n, err, k, errDisk)
			}
			w.Uvarint(1) // after Close: dropped, no panic
		}
	}
}

package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// FuzzReader drives a Reader with an arbitrary op sequence over an arbitrary
// sealed body (the harness adds magic and CRC so mutations reach the value
// methods). Whatever the bytes: no panic; a failure is ErrCorrupt; the bulk
// decoders IntsInto and FloatsInto give the values, the error and the final
// position of as many per-value calls; a clean Close means replaying the
// values through a Writer gives the same bytes (a varint spelled longer
// than its shortest form is corrupt); and the reader allocates no more than
// a constant multiple of the input.
func FuzzReader(f *testing.F) {
	const magic = "TEST"
	// One op per byte: op%numOps picks the method, op/numOps the item size
	// for Count and the value count for the bulk decoders.
	const (
		opUvarint = iota
		opInt
		opFloat
		opFloats
		opStr
		opStrs
		opBytes
		opCount
		opIntsInto
		opFloatsInto
		numOps
	)
	// run applies ops to rd and replays each value read into w.
	run := func(t *testing.T, rd *Reader, ops []byte, w *Writer) {
		var ints, oneInts [255 / numOps]int64
		var floats, oneFloats [255 / numOps]float64
		for _, op := range ops {
			arg := int(op / numOps)
			one := *rd // the per-value decoders' view of the same bytes
			switch op % numOps {
			case opUvarint:
				w.Uvarint(rd.Uvarint())
			case opInt:
				w.Int(rd.Int())
			case opFloat:
				w.Float(rd.Float())
			case opFloats:
				w.Floats(rd.Floats())
			case opStr:
				w.Str(rd.Str())
			case opStrs:
				w.Strs(rd.Strs())
			case opBytes:
				w.Bytes(rd.Bytes())
			case opCount:
				w.Uvarint(uint64(rd.Count(1 + arg)))
			case opIntsInto:
				for i := range arg {
					oneInts[i] = one.Int()
				}
				rd.IntsInto(ints[:arg])
				if ints != oneInts {
					t.Fatalf("IntsInto(%d) = %v, Int gives %v", arg, ints[:arg], oneInts[:arg])
				}
				for _, v := range ints[:arg] {
					w.Int(v)
				}
			case opFloatsInto:
				for i := range arg {
					oneFloats[i] = one.Float()
				}
				rd.FloatsInto(floats[:arg])
				for i := range floats {
					if math.Float64bits(floats[i]) != math.Float64bits(oneFloats[i]) {
						t.Fatalf("FloatsInto(%d) = %v, Float gives %v", arg, floats[:arg], oneFloats[:arg])
					}
				}
				for _, v := range floats[:arg] {
					w.Float(v)
				}
			}
			if op%numOps >= opIntsInto && (rd.pos != one.pos || (rd.err == nil) != (one.err == nil) || rd.err != nil && rd.err.Error() != one.err.Error()) {
				t.Fatalf("bulk op %d ended at %d with %v, per-value calls at %d with %v", op, rd.pos, rd.err, one.pos, one.err)
			}
		}
	}

	var own bytes.Buffer
	w := NewWriter(&own, magic)
	w.Uvarint(42)
	w.Int(-7)
	w.Float(math.Inf(-1))
	w.Floats([]float64{1.5, math.NaN(), math.Copysign(0, -1)})
	w.Str("héllo")
	w.Strs([]string{"a", "", "bc"})
	w.Bytes([]byte{9, 8, 7})
	w.Uvarint(0)
	if _, err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{opUvarint, opInt, opFloat, opFloats, opStr, opStrs, opBytes, opCount + 9*numOps}, own.Bytes()[len(magic):own.Len()-4])
	for _, count := range []uint64{1 << 62, 1 << 33} {
		hostile := binary.AppendUvarint(nil, count)
		for _, op := range []byte{opFloats, opStr, opStrs, opBytes, opCount, opCount + 23*numOps} {
			f.Add([]byte{op}, hostile)
		}
	}
	f.Add([]byte{opUvarint, opInt}, []byte{0x80, 0x00, 0x81, 0x00}) // non-minimal varints
	// Bulk decodes: a clean column, then columns cut short by a truncated
	// varint, an 11-byte overlong one and a partial float.
	ints := binary.AppendVarint([]byte{0x02, 0x7f}, -1<<40)
	f.Add([]byte{opIntsInto + 3*numOps, opFloatsInto + 1*numOps}, append(ints, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f))
	f.Add([]byte{opIntsInto + 3*numOps}, []byte{0x02, 0x81})
	f.Add([]byte{opIntsInto + 3*numOps}, []byte{0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00})
	f.Add([]byte{opFloatsInto + 2*numOps, opInt}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})

	f.Fuzz(func(t *testing.T, ops, body []byte) {
		data := binary.LittleEndian.AppendUint32(append([]byte(magic), body...), crc32.ChecksumIEEE(body))
		if _, err := NewReaderBytes(body, magic); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unsealed: %v is not ErrCorrupt", err)
		}

		rd, err := NewReaderBytes(data, magic)
		if err != nil {
			t.Fatalf("sealed body rejected: %v", err)
		}
		discard := NewWriter(new(bytes.Buffer), magic)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, rd, ops, discard)
		runtime.ReadMemStats(&after)
		// A string header per input byte is the densest legitimate case;
		// the discarding writer's own buffer growth rides on the same bound.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err := rd.Close(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v is not ErrCorrupt", err)
			}
			return
		}

		rd, _ = NewReaderBytes(data, magic)
		var enc bytes.Buffer
		w := NewWriter(&enc, magic)
		run(t, rd, ops, w)
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), data) {
			t.Fatalf("replay differs:\n in  %x\n out %x", data, enc.Bytes())
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// seedBlocks are column blocks of every column shape, for both fuzzers.
func seedBlocks() []Rows {
	r := rand.New(rand.NewSource(1))
	blocks := []Rows{
		EncodeRows([][]value.Datum{{}, {}}), // rows without columns
		EncodeRows([][]value.Datum{{value.Null}}),
	}
	for i := 0; i < 8; i++ {
		blocks = append(blocks, EncodeRows(randomRows(r, 1+r.Intn(6), 1+r.Intn(5))))
	}
	return blocks
}

// FuzzDecodeRows: the decoder of an untrusted block never panics, rejects a
// block that declares more cells or rows than it has bytes, and whatever it
// accepts survives a re-encode bit for bit — from the boxed rows and, when
// the rows can be a table, from its typed columns, both writing the bytes
// the row-wise reference does.
func FuzzDecodeRows(f *testing.F) {
	for _, b := range seedBlocks() {
		f.Add([]byte(b))
		f.Add([]byte(b[:len(b)/2]))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, err := DecodeRows(b)
		if len(b) >= 8 {
			nrows, ncols := uint64(binary.BigEndian.Uint32(b)), uint64(binary.BigEndian.Uint32(b[4:]))
			if body := uint64(len(b) - 8); err == nil && (nrows*ncols > body || nrows > body) {
				t.Fatalf("accepted %d×%d cells in %d bytes", nrows, ncols, body)
			}
		}
		if err != nil {
			return
		}
		block := EncodeRows(rows)
		if !bytes.Equal(block, referenceEncodeRows(rows)) {
			t.Fatal("EncodeRows differs from the row-wise reference")
		}
		again, err := DecodeRows(block)
		if err != nil {
			t.Fatalf("re-encoded block rejected: %v", err)
		}
		requireSameRows(t, again, rows)
		if results, ok := tableResults(t, rows, 3, `SELECT * FROM t`); ok {
			if typed, _ := EncodeResult(results[0], math.MaxInt); !bytes.Equal(typed, block) {
				t.Fatal("the block written from typed columns differs from the one written from rows")
			}
		}
	})
}

// FuzzReadFrame: a frame from an untrusted peer never panics the reader —
// as a request, as a response, or in the block decoder behind it — and a
// response that reads back writes back to the same block.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	for _, b := range seedBlocks() {
		buf.Reset()
		_ = WriteFrame(&buf, &Response{Type: RespResult, Result: &Result{Columns: []string{"a"}, Rows: b}})
		f.Add(buf.Bytes())
	}
	buf.Reset()
	_ = WriteFrame(&buf, &Request{Type: ReqQuery, SQL: "SELECT 1"})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 3, '{', '}', '\n'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var req Request
		_ = ReadFrame(bytes.NewReader(frame), &req)
		var resp Response
		if err := ReadFrame(bytes.NewReader(frame), &resp); err != nil || resp.Result == nil {
			return
		}
		_, _ = DecodeRows(resp.Result.Rows)
		var out bytes.Buffer
		if err := WriteFrame(&out, &resp); err != nil {
			t.Fatalf("frame that was read cannot be written: %v", err)
		}
		var again Response
		if err := ReadFrame(&out, &again); err != nil || !bytes.Equal(again.Result.Rows, resp.Result.Rows) {
			t.Fatalf("block changed on rewrite (err %v)", err)
		}
	})
}

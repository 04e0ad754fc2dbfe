package wire

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// benchRows is a result of five mixed columns: two ints, a float, a string
// and a float column with NULLs in it.
func benchRows(n int) [][]value.Datum {
	rows := make([][]value.Datum, n)
	for i := range rows {
		last := value.Null
		if i%7 != 0 {
			last = value.NewFloat(float64(i) / 3)
		}
		rows[i] = []value.Datum{
			value.NewInt(int64(i)), value.NewInt(int64(1990 + i%30)), value.NewFloat(float64(i) * 1.25),
			value.NewString(fmt.Sprintf("owner-%06d", i)), last,
		}
	}
	return rows
}

// sink keeps the compiler from discarding a benchmarked call.
var sink Rows

// benchShapes are the two served shapes the column writer is priced on: six
// numbers and a string, and a number and five strings.
var benchShapes = []struct {
	name string
	row  func(i int) []value.Datum
}{
	{"ints", func(i int) []value.Datum {
		return []value.Datum{
			value.NewInt(int64(i)), value.NewInt(int64(i / 3)), value.NewInt(int64(1990 + i%30)), value.NewFloat(float64(i) * 1.25),
			value.NewInt(int64(-i)), value.NewFloat(float64(i) / 3), value.NewString(fmt.Sprintf("owner-%06d", i)),
		}
	}},
	{"strings", func(i int) []value.Datum {
		return []value.Datum{
			value.NewInt(int64(i)), value.NewString(fmt.Sprintf("owner-%06d", i)), value.NewString(fmt.Sprintf("city-%03d", i%300)),
			value.NewString(fmt.Sprintf("%d Main Street, Unit %d", i, i%17)), value.NewString("CA"), value.NewString(fmt.Sprintf("model-%02d", i%40)),
		}
	}},
}

// BenchmarkResultFrame prices the result path of one served statement:
// rows to block, block to rows, and both through a whole frame; then what
// the server runs, columns to block (result/…: an unboxed scan result of the
// int-heavy and the string-heavy shape, next to boxing the same result and
// encoding its rows). Bytes are frame bytes, or block bytes for result/…, so
// MB/s compares across row counts.
func BenchmarkResultFrame(b *testing.B) {
	for _, n := range []int{50, 500, 5000} {
		for _, shape := range benchShapes {
			rows := make([][]value.Datum, n)
			for i := range rows {
				rows[i] = shape.row(i)
			}
			results, _ := tableResults(b, rows, storage.DefaultChunkSize, `SELECT * FROM t`)
			res := results[0]
			block, _ := EncodeResult(res, math.MaxInt)
			b.Run(fmt.Sprintf("result/rows=%d/shape=%s/columns", n, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(block)))
				for i := 0; i < b.N; i++ {
					sink, _ = EncodeResult(res, math.MaxInt)
				}
			})
			b.Run(fmt.Sprintf("result/rows=%d/shape=%s/boxed", n, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(block)))
				for i := 0; i < b.N; i++ {
					sink = EncodeRows(res.Rows())
				}
			})
		}
	}
	for _, n := range []int{50, 500, 5000} {
		rows := benchRows(n)
		res := &Result{Columns: []string{"id", "year", "price", "name", "score"}, Plan: "Scan(owner)"}
		res.Rows = EncodeRows(rows)
		var frame bytes.Buffer
		if err := WriteFrame(&frame, &Response{Type: RespResult, ID: 1, Result: res}); err != nil {
			b.Fatal(err)
		}
		size := int64(frame.Len())
		b.Run(fmt.Sprintf("encode/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				sink = EncodeRows(rows)
			}
		})
		b.Run(fmt.Sprintf("decode/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRows(res.Rows); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("roundtrip/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				out := *res
				out.Rows = EncodeRows(rows)
				if err := WriteFrame(&buf, &Response{Type: RespResult, ID: 1, Result: &out}); err != nil {
					b.Fatal(err)
				}
				var resp Response
				if err := ReadFrame(&buf, &resp); err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeRows(resp.Result.Rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

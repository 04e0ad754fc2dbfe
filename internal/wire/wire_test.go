package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/value"
)

func TestWireCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []Request{
		{Type: ReqQuery, SQL: "SELECT * FROM car"},
		{Type: ReqPrepare, SQL: "SELECT 1"},
		{Type: ReqExecute, StmtID: 7},
		{Type: ReqOptions, Parallelism: 4, TimeoutMS: 250},
		{Type: ReqClose},
	}
	for _, r := range reqs {
		if err := WriteFrame(&buf, &r); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range reqs {
		var got Request
		if err := ReadFrame(&buf, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
	var eof Request
	if err := ReadFrame(&buf, &eof); err != io.EOF {
		t.Fatalf("exhausted stream: %v, want io.EOF", err)
	}
}

// sameBits is datum identity down to the bit: == except that a float is
// compared by its IEEE-754 bits, so NaN payloads and the sign of zero count.
func sameBits(a, b value.Datum) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a == b
}

func requireSameRows(t testing.TB, got, want [][]value.Datum) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows != %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %d columns != %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameBits(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestWireRowsRoundTrip(t *testing.T) {
	rows := [][]value.Datum{
		{value.NewInt(-7), value.NewString("O'Brien"), value.NewFloat(3.25), value.Null},
		{value.NewInt(0), value.NewString(""), value.NewFloat(math.Inf(1)), value.NewString("x\ny")},
	}
	dec, err := DecodeRows(EncodeRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, dec, rows)
	if got, err := DecodeRows(nil); got != nil || err != nil {
		t.Fatalf("DecodeRows(nil) = %v, %v", got, err)
	}
	// Rows share a backing array but not capacity: growing one must not
	// write into the next.
	_ = append(dec[0], value.NewInt(99))
	requireSameRows(t, dec, rows)
}

// Every datum a column can hold, edge cases first.
var (
	edgeInts   = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 32, -(1 << 53)}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1.5, -0.1, 1.0 / 3.0, math.Pi, 1e300,
		5e-324, -5e-324, 2.2250738585072009e-308, // denormals: smallest, largest
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with a payload
		math.Float64frombits(0xfff4000000000bad), // negative signalling NaN
	}
	edgeStrings = []string{"", "a", "O'Brien", "x\ny", "a\xffb", "\xc3\x28", "\x00", "naïve ☃", "{\"k\":1}\n"}
)

func randomDatum(r *rand.Rand, k value.Kind) value.Datum {
	switch k {
	case value.KindInt:
		if r.Intn(2) == 0 {
			return value.NewInt(edgeInts[r.Intn(len(edgeInts))])
		}
		return value.NewInt(r.Int63() - r.Int63())
	case value.KindFloat:
		if r.Intn(2) == 0 {
			return value.NewFloat(edgeFloats[r.Intn(len(edgeFloats))])
		}
		return value.NewFloat(math.Float64frombits(r.Uint64()))
	case value.KindString:
		if r.Intn(2) == 0 {
			return value.NewString(edgeStrings[r.Intn(len(edgeStrings))])
		}
		b := make([]byte, r.Intn(24))
		r.Read(b)
		return value.NewString(string(b))
	default:
		return value.Null
	}
}

// randomRows draws a result set whose columns are each of one kind, all
// NULL, or a per-cell mix.
func randomRows(r *rand.Rand, nrows, ncols int) [][]value.Datum {
	rows := make([][]value.Datum, nrows)
	for i := range rows {
		rows[i] = make([]value.Datum, ncols)
	}
	for j := 0; j < ncols; j++ {
		mode := r.Intn(5) // a value.Kind, or 4 for mixed
		for i := range rows {
			k := value.Kind(mode)
			if mode == 4 {
				k = value.Kind(r.Intn(4))
			}
			rows[i][j] = randomDatum(r, k)
		}
	}
	return rows
}

// TestWireRowsProperty: DecodeRows(EncodeRows(r)) is r, bit for bit, over
// random result sets — the home of float and string exactness on the wire.
func TestWireRowsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for iter := 0; iter < 2000; iter++ {
		nrows, ncols := r.Intn(40), r.Intn(7)
		if iter%10 == 0 {
			nrows = r.Intn(2) // 0 and 1 row, often
		}
		rows := randomRows(r, nrows, ncols)
		block := EncodeRows(rows)
		dec, err := DecodeRows(block)
		if err != nil {
			t.Fatalf("iter %d (%d×%d): %v", iter, nrows, ncols, err)
		}
		if nrows == 0 {
			if block != nil || dec != nil {
				t.Fatalf("iter %d: no rows encoded to %d bytes, decoded to %v", iter, len(block), dec)
			}
			continue
		}
		requireSameRows(t, dec, rows)
		// The same rows through a whole frame.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Response{Type: RespResult, ID: uint64(iter), Result: &Result{Rows: block}}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadFrame(&buf, &resp); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if resp.ID != uint64(iter) || !bytes.Equal(resp.Result.Rows, block) {
			t.Fatalf("iter %d: block changed in the frame", iter)
		}
	}
	// Every edge value, in one column of its kind.
	var rows [][]value.Datum
	n := max(len(edgeInts), len(edgeFloats), len(edgeStrings))
	for i := 0; i < n; i++ {
		rows = append(rows, []value.Datum{
			value.NewInt(edgeInts[i%len(edgeInts)]),
			value.NewFloat(edgeFloats[i%len(edgeFloats)]),
			value.NewString(edgeStrings[i%len(edgeStrings)]),
			value.Null,
		})
	}
	dec, err := DecodeRows(EncodeRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, dec, rows)
}

// TestWireDecodeRejects: malformed blocks fail, and one that declares more
// cells or rows than it has bytes fails before anything is allocated for them.
func TestWireDecodeRejects(t *testing.T) {
	good := EncodeRows([][]value.Datum{
		{value.NewInt(1), value.NewString("ab"), value.Null},
		{value.NewInt(2), value.NewString("c"), value.NewFloat(1)},
	})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeRows(good[:cut]); err == nil {
			t.Fatalf("block truncated to %d of %d bytes accepted", cut, len(good))
		}
	}
	if _, err := DecodeRows(append(append(Rows(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	block := func(nrows, ncols uint32, body ...byte) Rows {
		b := binary.BigEndian.AppendUint32(nil, nrows)
		return append(binary.BigEndian.AppendUint32(b, ncols), body...)
	}
	bad := map[string]Rows{
		"no rows":               block(0, 3, 1, 1, 1),
		"unknown tag":           block(1, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0),
		"unknown cell kind":     block(2, 1, tagPerCell, 7, 0),
		"string overrun":        block(1, 1, byte(value.KindString), 0, 0, 0, 9, 'a'),
		"huge cells":            block(math.MaxUint32, math.MaxUint32, 1, 2, 3),
		"huge rows, no columns": block(math.MaxUint32, 0),
		"huge NULL column":      block(1<<30, 1, tagPerCell),
	}
	for name, b := range bad {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRows(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: allocated %d bytes before rejecting", name, grew)
		}
	}
}

// TestWireFrameBlock: the column block rides only behind a result.
func TestWireFrameBlock(t *testing.T) {
	rows := [][]value.Datum{{value.NewInt(1), value.NewString("line\nfeed")}}
	var buf bytes.Buffer
	res := &Result{Columns: []string{"a", "b"}, Rows: EncodeRows(rows), Plan: "Scan\n  Filter"}
	if err := WriteFrame(&buf, &Response{Type: RespResult, ID: 3, Result: res}); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	var resp Response
	if err := ReadFrame(&buf, &resp); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRows(resp.Result.Rows)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, dec, rows)
	if resp.Result.Plan != res.Plan || len(resp.Result.Columns) != 2 {
		t.Fatalf("header changed: %+v", resp.Result)
	}
	// The same bytes read as a request, or behind a response with no result.
	var req Request
	if err := ReadFrame(bytes.NewReader(frame), &req); err == nil {
		t.Fatal("request frame with a column block accepted")
	}
	var pong bytes.Buffer
	pong.Write([]byte{0, 0, 0, 17})
	pong.WriteString(`{"type":"pong"}` + "\nx")
	if err := ReadFrame(&pong, new(Response)); err == nil {
		t.Fatal("column block behind a pong accepted")
	}
	// A reused Response must not keep the previous frame's rows.
	if err := WriteFrame(&buf, &Response{Type: RespResult, Result: &Result{RowsAffected: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(&buf, &resp); err != nil || resp.Result.Rows != nil {
		t.Fatalf("rows after a rowless result: %v, err %v", resp.Result.Rows, err)
	}
}

// oneWrite counts Write calls.
type oneWrite struct{ calls int }

func (w *oneWrite) Write(p []byte) (int, error) { w.calls++; return len(p), nil }

// TestWireFrameSingleWrite: prefix, header and block leave in one Write —
// one syscall and, under TCP_NODELAY, one segment train per frame.
func TestWireFrameSingleWrite(t *testing.T) {
	var w oneWrite
	for _, v := range []any{
		&Request{Type: ReqPing},
		&Response{Type: RespResult, Result: &Result{Rows: EncodeRows([][]value.Datum{{value.NewInt(1)}})}},
	} {
		w.calls = 0
		if err := WriteFrame(&w, v); err != nil || w.calls != 1 {
			t.Fatalf("%T: %d writes, err %v", v, w.calls, err)
		}
	}
}

func TestWireFrameLimit(t *testing.T) {
	// A header announcing an absurd payload must be rejected before any
	// allocation, not trusted.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	var req Request
	if err := ReadFrame(bytes.NewReader(hdr), &req); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestWireErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{govern.ErrOverloaded, CodeOverloaded},
		{fmt.Errorf("admission: %w", govern.ErrOverloaded), CodeOverloaded},
		{govern.ErrMemoryBudget, CodeMemoryBudget},
		{engine.ErrClosed, CodeClosed},
		{context.DeadlineExceeded, CodeTimeout},
		{errors.New("no such table"), CodeError},
	}
	for _, c := range cases {
		if got := CodeFor(c.err); got != c.code {
			t.Fatalf("CodeFor(%v) = %q, want %q", c.err, got, c.code)
		}
	}
	// Sentinel round trip: a code's base error must satisfy errors.Is
	// against the sentinel that produced the code.
	roundTrips := []struct {
		code     string
		sentinel error
	}{
		{CodeOverloaded, govern.ErrOverloaded},
		{CodeMemoryBudget, govern.ErrMemoryBudget},
		{CodeClosed, engine.ErrClosed},
		{CodeTimeout, context.DeadlineExceeded},
	}
	for _, rt := range roundTrips {
		if !errors.Is(BaseError(rt.code), rt.sentinel) {
			t.Fatalf("BaseError(%q) does not match %v", rt.code, rt.sentinel)
		}
	}
	if BaseError(CodeError) != nil || BaseError(CodeBadRequest) != nil {
		t.Fatal("generic codes must have no sentinel")
	}
}

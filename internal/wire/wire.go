// Package wire defines the SQL service's TCP frame protocol, shared by
// internal/server and internal/client so the two sides can never drift.
//
// Framing is length-prefixed: each frame is a 4-byte big-endian payload
// length followed by that many bytes — a JSON header and, behind a result
// that has rows, a line feed and one binary column block:
//
//	| u32 length | JSON header | 0x0A | column block |
//	             |<----------- length bytes ------->|
//
// Every other frame is the JSON alone. encoding/json never emits a raw line
// feed, so the first one in a payload ends the header. Each request frame is
// answered in order by exactly one response frame — there is no pipelining,
// interleaving, or server push, which keeps both ends trivially correct and
// makes the protocol easy to test byte-for-byte.
//
// A session is one connection. Its first frame is a hello; then the client
// sends query frames until it closes the session or the connection:
//
//	hello    {type}                      open the session
//	query    {type, sql}                 run one statement
//	close    {type}                      end the session
//
// Response types:
//
//	welcome  {type}                      hello acknowledgement
//	result   {type, result} + block      plan/metrics of a statement, rows behind
//	ok       {type}                      close acknowledgement
//	error    {type, error{code, message}}  typed failure
//
// Nothing survives the connection: a client whose connection fails
// mid-statement cannot tell whether the statement ran, and dials a new
// session for the next one.
//
// Error frames carry a machine-readable code so clients can reconstruct
// the engine's sentinel errors: engine-closed, server-draining and deadline
// expiry survive the wire distinctly (errors.Is works on the client side).
//
// Result rows travel column by column, all integers big-endian:
//
//	block  = u32 rows | u32 cols | column × cols
//	column = u8 tag | [tag 0: u8 kind × rows] | u64 × numbers | u32 × strings | string bytes
//
// A column's tag is the value.Kind every cell shares (1 int, 2 float,
// 3 string), or 0 when the cells differ or are all NULL, and then one kind
// byte per cell follows. In row order come the column's numbers (an int64,
// or the 64 IEEE-754 bits of a float), then its strings' byte lengths, then
// the strings' bytes in one run; a NULL cell takes no more room. A block
// without columns carries one zero byte per row, so every cell and every
// row a block declares is backed by at least one byte, and DecodeRows checks
// the declaration against the length before it allocates. Floats and
// strings are copied, not formatted, so a served result is bit-identical to
// the same statement run in-process — NaN payloads, −0 and non-UTF-8 bytes
// included; TestWireRowsProperty and the wire differential harness pin that.
//
// The server writes a block with EncodeResult, from the executor's unboxed
// result: table columns as typed vectors, never as cells. EncodeRows is the
// same writer for a caller that holds boxed rows, and DecodeRows the client's
// way back to them.
package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/executor"
	"repro/internal/storage"
	"repro/internal/value"
)

// MaxFrameBytes bounds one frame's payload; a peer announcing more is
// corrupt or hostile and the connection is dropped.
const MaxFrameBytes = 64 << 20

// MaxBlockBytes bounds a result's column block: the frame limit less the
// room left for the JSON header in front of it. A server answers a larger
// result with an error frame instead of a frame it cannot send.
const MaxBlockBytes = MaxFrameBytes - 1<<20

// Request frame types.
const (
	ReqHello = "hello"
	ReqQuery = "query"
	ReqClose = "close"
)

// Response frame types.
const (
	RespWelcome = "welcome"
	RespResult  = "result"
	RespOK      = "ok"
	RespError   = "error"
)

// Error codes carried by error frames.
const (
	CodeClosed     = "engine_closed" // engine.ErrClosed: engine shut down
	CodeDraining   = "draining"      // server refusing new sessions during graceful drain
	CodeTimeout    = "timeout"       // statement cancelled or its deadline expired
	CodeBadRequest = "bad_request"   // a frame the protocol does not take where it came
	CodeError      = "error"         // anything else (parse errors, unknown tables, …)
)

// Request is one client→server frame.
type Request struct {
	Type string `json:"type"`
	SQL  string `json:"sql,omitempty"`
}

// Response is one server→client frame.
type Response struct {
	Type   string  `json:"type"`
	Result *Result `json:"result,omitempty"`
	Error  *Error  `json:"error,omitempty"`
}

// Error is the typed failure payload of an error frame.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Result is a statement outcome on the wire.
type Result struct {
	Columns        []string `json:"columns,omitempty"`
	Rows           Rows     `json:"-"` // the frame's column block
	RowsAffected   int      `json:"rows_affected,omitempty"`
	Plan           string   `json:"plan,omitempty"`
	CompileSeconds float64  `json:"compile_s"`
	ExecSeconds    float64  `json:"exec_s"`
	// Degraded and DegradedTables surface the JITS graceful-degradation
	// flags ("table: reason") so clients see exactly what an embedded
	// caller would read from Result.Prepare.
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedTables []string `json:"degraded_tables,omitempty"`
	// PlanCacheHit reports that the server reused a compiled plan.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
}

// Rows is a result's rows as one column block (layout in the package doc).
// It rides behind the frame's JSON header, not inside it.
type Rows []byte

// tagPerCell marks a column whose cells do not all share one non-NULL kind:
// a kind byte per cell follows the tag.
const tagPerCell = byte(value.KindNull)

// EncodeResult packs a finished result into a column block without boxing a
// table column: each is gathered through its row positions into one scratch
// vector, and its numbers, string lengths and string bytes are written from
// the typed arrays; kind bytes are spent only on a column with a NULL in it.
// A column that exists only boxed — an aggregate's, EXPLAIN's and SHOW's —
// is written from its cells. The block's exact size is computed first, a
// table column's from its row positions without gathering it: a result
// whose block would pass limit is refused, (nil, size), before a byte of it
// is gathered or allocated, and any other block is allocated once. No rows
// is no block.
func EncodeResult(res *executor.Columnar, limit int) (block Rows, size int) {
	n, ncols := res.Len(), res.NumCols()
	if n == 0 {
		return nil, 0
	}
	var vec storage.ColumnVec // the scratch every typed column is gathered into
	var cells []value.Datum   // and the one every boxed column is copied into
	size = 8
	if ncols == 0 {
		size += n
	}
	for j := 0; j < ncols; j++ {
		if kind, nulls, strBytes, ok := res.Measure(j); ok {
			size += typedShape(kind, n, nulls, strBytes).size(n)
		} else {
			cells = res.Cells(j, cells)
			size += cellsShape(cells).size(n)
		}
	}
	if size > limit {
		return nil, size
	}
	b := make([]byte, 0, size)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	b = binary.BigEndian.AppendUint32(b, uint32(ncols))
	if ncols == 0 {
		return b[:size], size
	}
	for j := 0; j < ncols; j++ {
		if v := res.Vector(j, &vec); v != nil {
			b = appendVector(b, v)
		} else {
			cells = res.Cells(j, cells)
			b = appendCells(b, cells)
		}
	}
	if len(b) != size {
		panic(fmt.Sprintf("wire: column block of %d bytes was sized at %d", len(b), size))
	}
	return b, size
}

// EncodeRows packs boxed rows into a column block: EncodeResult for callers
// that hold cells. Rows must all have the first row's width, as an engine
// result's do.
func EncodeRows(rows [][]value.Datum) Rows {
	for _, r := range rows {
		if len(r) != len(rows[0]) {
			panic("wire: EncodeRows on ragged rows")
		}
	}
	block, _ := EncodeResult(executor.FromRows(nil, rows), math.MaxInt)
	return block
}

// shape is what one column puts in a block: its tag, how many numbers and
// strings follow, and the strings' bytes.
type shape struct {
	tag                  byte
	nums, strs, strBytes int
}

// size returns the column's bytes in a block of n rows.
func (s shape) size(n int) int {
	size := 1 + 8*s.nums + 4*s.strs + s.strBytes
	if s.tag == tagPerCell {
		size += n
	}
	return size
}

// typedShape sizes a typed column of n cells, nulls of them NULL, whose
// other strings hold strBytes: every cell is of the column's kind or NULL,
// and a NULL takes the tag away.
func typedShape(kind value.Kind, n, nulls, strBytes int) shape {
	sh := shape{tag: byte(kind)}
	if nulls > 0 {
		sh.tag = tagPerCell
	}
	if kind != value.KindString {
		sh.nums = n - nulls
		return sh
	}
	sh.strs, sh.strBytes = n-nulls, strBytes
	return sh
}

// appendVector writes a typed column.
func appendVector(b []byte, v *storage.ColumnVec) []byte {
	kind, nulls := v.Kind(), v.HasNulls()
	if !nulls {
		b = append(b, byte(kind))
	} else {
		b = append(b, tagPerCell)
		for i, n := 0, v.Len(); i < n; i++ {
			if v.Null(i) {
				b = append(b, byte(value.KindNull))
			} else {
				b = append(b, byte(kind))
			}
		}
	}
	switch kind {
	case value.KindInt:
		for i, x := range v.Ints() {
			if !nulls || !v.Null(i) {
				b = binary.BigEndian.AppendUint64(b, uint64(x))
			}
		}
	case value.KindFloat:
		for i, x := range v.Floats() {
			if !nulls || !v.Null(i) {
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
	default:
		for i, s := range v.Strs() {
			if !nulls || !v.Null(i) {
				b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
			}
		}
		for i, s := range v.Strs() {
			if !nulls || !v.Null(i) {
				b = append(b, s...)
			}
		}
	}
	return b
}

// cellsShape sizes a column of boxed cells, whose kinds may differ cell to
// cell: the tag is the kind they all share, or tagPerCell.
func cellsShape(cells []value.Datum) shape {
	sh := shape{tag: byte(cells[0].Kind())}
	for i := range cells {
		d := &cells[i]
		switch d.Kind() {
		case value.KindInt, value.KindFloat:
			sh.nums++
		case value.KindString:
			sh.strs++
			sh.strBytes += len(d.Str())
		}
		if byte(d.Kind()) != sh.tag {
			sh.tag = tagPerCell
		}
	}
	return sh
}

// appendCells writes a column of boxed cells.
func appendCells(b []byte, cells []value.Datum) []byte {
	sh := cellsShape(cells)
	b = append(b, sh.tag)
	if sh.tag == tagPerCell {
		for i := range cells {
			b = append(b, byte(cells[i].Kind()))
		}
	}
	if sh.nums > 0 {
		for i := range cells {
			switch d := &cells[i]; d.Kind() {
			case value.KindInt:
				b = binary.BigEndian.AppendUint64(b, uint64(d.Int()))
			case value.KindFloat:
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(d.Float()))
			}
		}
	}
	if sh.strs > 0 {
		for i := range cells {
			if d := &cells[i]; d.Kind() == value.KindString {
				b = binary.BigEndian.AppendUint32(b, uint32(len(d.Str())))
			}
		}
		for i := range cells {
			if d := &cells[i]; d.Kind() == value.KindString {
				b = append(b, d.Str()...)
			}
		}
	}
	return b
}

// DecodeRows unpacks a column block from an untrusted peer. The rows are
// slices of one backing array (capacity-limited, so appending to a row
// copies it) and each column's strings share one allocation: retaining one
// cell retains its column's strings, retaining one row retains them all.
func DecodeRows(b Rows) ([][]value.Datum, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if len(b) < 8 {
		return nil, errTruncated
	}
	nrows, ncols := int(binary.BigEndian.Uint32(b)), int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	// No rows is no block; every declared cell, and every row, is backed by
	// at least one byte.
	if nrows == 0 || uint64(nrows)*uint64(ncols) > uint64(len(b)) || nrows > len(b) {
		return nil, fmt.Errorf("wire: column block declares %d×%d cells in %d bytes", nrows, ncols, len(b))
	}
	if ncols == 0 {
		b = b[nrows:]
	}
	cells := make([]value.Datum, nrows*ncols)
	out := make([][]value.Datum, nrows)
	for i := range out {
		out[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	for j := 0; j < ncols; j++ {
		var err error
		if b, err = decodeColumn(b, cells[j:], nrows, ncols); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d bytes after the column block's last column", len(b))
	}
	return out, nil
}

var errTruncated = errors.New("wire: column block truncated")

// decodeColumn reads one column off the front of b into cells[0],
// cells[stride], … and returns what follows it.
func decodeColumn(b []byte, cells []value.Datum, nrows, stride int) ([]byte, error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	tag, b := b[0], b[1:]
	var kinds []byte // per-cell kinds; nil when the tag speaks for every cell
	nums, strs := 0, 0
	switch value.Kind(tag) {
	case value.KindInt, value.KindFloat:
		nums = nrows
	case value.KindString:
		strs = nrows
	case value.Kind(tagPerCell):
		if len(b) < nrows {
			return nil, errTruncated
		}
		kinds, b = b[:nrows], b[nrows:]
		for _, k := range kinds {
			switch value.Kind(k) {
			case value.KindNull:
			case value.KindInt, value.KindFloat:
				nums++
			case value.KindString:
				strs++
			default:
				return nil, fmt.Errorf("wire: unknown value kind %d", k)
			}
		}
	default:
		return nil, fmt.Errorf("wire: unknown value kind %d", tag)
	}
	if len(b) < nums*8+strs*4 {
		return nil, errTruncated
	}
	num, lens, b := b[:nums*8], b[nums*8:nums*8+strs*4], b[nums*8+strs*4:]
	total := uint64(0)
	for i := 0; i < len(lens); i += 4 {
		total += uint64(binary.BigEndian.Uint32(lens[i:]))
	}
	if total > uint64(len(b)) {
		return nil, errTruncated
	}
	// One allocation holds the column's strings; the cells are cut from it.
	text, b := string(b[:total]), b[total:]
	for i := 0; i < nrows; i++ {
		k := tag
		if kinds != nil {
			k = kinds[i]
		}
		switch value.Kind(k) {
		case value.KindInt:
			cells[i*stride], num = value.NewInt(int64(binary.BigEndian.Uint64(num))), num[8:]
		case value.KindFloat:
			cells[i*stride], num = value.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(num))), num[8:]
		case value.KindString:
			n := binary.BigEndian.Uint32(lens)
			cells[i*stride], lens, text = value.NewString(text[:n]), lens[4:], text[n:]
		}
	}
	return b, nil
}

// WriteFrame writes v as one frame in a single Write: length prefix, JSON
// header and, when v is a *Response whose result has rows, a line feed and
// the column block.
func WriteFrame(w io.Writer, v any) error {
	hdr, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	var block Rows
	if resp, ok := v.(*Response); ok && resp.Result != nil {
		block = resp.Result.Rows
	}
	n := len(hdr)
	if len(block) > 0 {
		n += 1 + len(block)
	}
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	frame := make([]byte, 4, 4+n)
	binary.BigEndian.PutUint32(frame, uint32(n))
	frame = append(frame, hdr...)
	if len(block) > 0 {
		frame = append(append(frame, '\n'), block...)
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame into v. io.EOF is returned
// untouched when the peer closed cleanly between frames. A column block is
// accepted only behind a *Response carrying a result, and is left aliasing
// the frame's payload buffer.
func ReadFrame(r io.Reader, v any) error { return readFrame(r, v, func() {}) }

// readFrame is ReadFrame with a hook between header and payload, where
// ReadFrameDeadline re-arms the connection's deadline.
func readFrame(r io.Reader, v any, headerRead func()) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrameBytes {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	headerRead()
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("wire: read payload: %w", err)
	}
	hdr, block, _ := bytes.Cut(payload, []byte{'\n'})
	if err := json.Unmarshal(hdr, v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	if resp, ok := v.(*Response); ok && resp.Result != nil {
		resp.Result.Rows = block
	} else if len(block) > 0 {
		return errors.New("wire: column block behind a frame that takes none")
	}
	return nil
}

// CodeFor maps an engine error to its wire code — the server side of the
// typed-error contract.
func CodeFor(err error) string {
	switch {
	case errors.Is(err, engine.ErrClosed):
		return CodeClosed
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return CodeTimeout
	default:
		return CodeError
	}
}

// BaseError returns the sentinel error a wire code stands for, or nil when
// the code has no sentinel — the client side of the typed-error contract.
// CodeDraining maps to engine.ErrClosed: to a caller, a draining server and
// a closed engine mean the same thing — take the statement elsewhere.
func BaseError(code string) error {
	switch code {
	case CodeClosed, CodeDraining:
		return engine.ErrClosed
	case CodeTimeout:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// ReadFrameDeadline reads one frame from conn under staged deadlines: the
// header read (waiting for the next frame to start) is bounded by idle, the
// payload read (a frame already in flight) by frame. Zero disables either
// stage. This is the server's stalled-peer defence — a session that never
// sends another frame is reaped by idle, one that tears off mid-frame is
// reaped by frame — without the two very different patience windows
// collapsing into one knob.
func ReadFrameDeadline(conn net.Conn, v any, idle, frame time.Duration) error {
	_ = conn.SetReadDeadline(deadline(idle))
	return readFrame(conn, v, func() { _ = conn.SetReadDeadline(deadline(frame)) })
}

// deadline turns a timeout into an absolute deadline; zero is none.
func deadline(d time.Duration) time.Time {
	if d > 0 {
		return time.Now().Add(d)
	}
	return time.Time{}
}

// WriteFrameDeadline writes one frame to conn, bounding the write by frame
// (zero disables the deadline). A peer that stopped reading eventually
// fills the kernel buffers; the deadline turns that silent stall into an
// error the caller can act on.
func WriteFrameDeadline(conn net.Conn, v any, frame time.Duration) error {
	_ = conn.SetWriteDeadline(deadline(frame))
	return WriteFrame(conn, v)
}

package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestReadFrameDeadlineIdle: a peer that never sends the next frame header
// trips the idle deadline — the reap signal servers act on.
func TestReadFrameDeadlineIdle(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	var req Request
	start := time.Now()
	err := ReadFrameDeadline(srv, &req, 20*time.Millisecond, 20*time.Millisecond)
	if !isTimeout(err) {
		t.Fatalf("err = %v, want deadline timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("idle timeout took %v", d)
	}
}

// TestReadFrameDeadlineMidFrame: a torn frame — header promising bytes that
// never arrive — trips the (separate) frame deadline instead of hanging.
func TestReadFrameDeadlineMidFrame(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		_, _ = cli.Write(hdr[:]) // promise 64 payload bytes, deliver none
	}()
	var req Request
	err := ReadFrameDeadline(srv, &req, time.Second, 20*time.Millisecond)
	if !isTimeout(err) {
		t.Fatalf("err = %v, want mid-frame timeout", err)
	}
}

// TestFrameDeadlineZeroIsUnbounded: zero timeouts must behave exactly like
// the deadline-free ReadFrame/WriteFrame — the compatible default.
func TestFrameDeadlineZeroIsUnbounded(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		if err := WriteFrameDeadline(cli, &Request{Type: ReqClose}, 0); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	var req Request
	if err := ReadFrameDeadline(srv, &req, 0, 0); err != nil {
		t.Fatal(err)
	}
	if req.Type != ReqClose {
		t.Fatalf("decoded %+v", req)
	}
}

// TestWriteFrameDeadline: a peer that stops reading trips the write
// deadline (net.Pipe is unbuffered, so an unread write blocks immediately).
func TestWriteFrameDeadline(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	err := WriteFrameDeadline(cli, &Request{Type: ReqClose}, 20*time.Millisecond)
	if !isTimeout(err) {
		t.Fatalf("err = %v, want write timeout", err)
	}
}

package ibp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"

	"repro/internal/wire"
)

func TestIsConnReuseError(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{os.ErrDeadlineExceeded, true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, true},
		// Wrapped connectivity errors classify the same.
		{fmt.Errorf("ibp: load: %w", io.EOF), true},
		{fmt.Errorf("ibp: dial x: %w", &net.OpError{Op: "dial", Err: errors.New("refused")}), true},
		// Remote protocol errors mean the depot answered; retrying the
		// same request would just repeat the answer (or worse, repeat a
		// non-idempotent side effect).
		{&wire.RemoteError{Code: wire.CodeNotFound}, false},
		{&wire.RemoteError{Code: wire.CodeExpired}, false},
		{&wire.RemoteError{Code: wire.CodeInternal}, false},
		{fmt.Errorf("op: %w", &wire.RemoteError{Code: wire.CodeBadRequest}), false},
		{errors.New("some app error"), false},
	}
	for _, c := range cases {
		if got := isConnReuseError(c.err); got != c.want {
			t.Fatalf("isConnReuseError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestClientCloseWithoutPoolIsNoop(t *testing.T) {
	c := NewClient(WithPooling(0))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

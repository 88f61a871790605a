package daemon

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"jointadmin"
	"jointadmin/internal/sharedrsa"
)

// TestErrClass pins the sentinel → kind taxonomy that labels
// daemon_command_errors_total: each sentinel maps to its label whether
// it arrives bare or wrapped, and anything else is "internal".
func TestErrClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "canceled"},
		{jointadmin.ErrNoGroup, "no_group"},
		{jointadmin.ErrDenied, "denied"},
		{sharedrsa.ErrSignFault, "sign_fault"},
		{errors.New("disk on fire"), "internal"},
	}
	for _, c := range cases {
		if got := errClass(c.err); got != c.want {
			t.Errorf("errClass(%v) = %q, want %q", c.err, got, c.want)
		}
		if c.err == nil {
			continue
		}
		wrapped := fmt.Errorf("handler: %w", c.err)
		if got := errClass(wrapped); got != c.want {
			t.Errorf("errClass(%v) = %q, want %q", wrapped, got, c.want)
		}
	}
}

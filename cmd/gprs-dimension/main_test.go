package main

import (
	"bytes"
	"testing"
)

// TestRunRejectsBadFlags checks that each bad flag fails before any model
// solve and before anything is printed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-degradation", "0"}, "degradation must lie in (0, 1), got 0"},
		{[]string{"-degradation", "1"}, "degradation must lie in (0, 1), got 1"},
		{[]string{"-max-pdch", "-1"}, "max-pdch must be at least 0, got -1"},
		{[]string{"-model", "7"}, "traffic: invalid parameter: traffic model 7 is outside 1..3"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("run %v: error %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed before failing:\n%s", c.args, out.String())
		}
	}
}

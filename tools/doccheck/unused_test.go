package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestUnusedExports runs the check over a fixture module with one unused
// export, one allowlisted export, and two used ones (one called directly,
// one through an interface literal): exactly the unused one is reported, and
// an allowlist entry naming no unused export is reported as stale.
func TestUnusedExports(t *testing.T) {
	root := filepath.Join("testdata", "mod")
	got, err := unusedExports(root, map[string]string{"lib.Kept": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(root, "lib", "lib.go") + ":15:17: lib.Gauge.Add has no caller outside tests"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}

	got, err = unusedExports(root, map[string]string{"lib.Kept": "fixture", "lib.Counter.Add": "stale"})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, "allowlist entry lib.Counter.Add is not an unused export")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

package trace_test

import (
	"encoding/hex"
	"testing"

	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// TestDigestsPinned pins both digests of one catalog app to the values the
// two separate walkers produced before they were folded into one. The
// digests key the profile memo, the service cache and the sampled-launch
// memo, so the fold (and any later change to the walker) must keep them
// bit-equal.
func TestDigestsPinned(t *testing.T) {
	app, err := workload.Generate("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Kernels) != 4 {
		t.Fatalf("BFS at scale 0.25 has %d kernels, want 4", len(app.Kernels))
	}
	for _, c := range []struct {
		name string
		got  [32]byte
		want string
	}{
		{"ContentHash", trace.ContentHash(app), "a765901ebfe19d6820770d2093daf6c7ce1d0f097e10977e4eea4f73cdff67b4"},
		{"LaunchKey(first)", trace.LaunchKey(app.Kernels[0]), "74d205f1ce04380e1e931cab4a4aae8d2f739d32de76b2c4ef23759138342b17"},
		{"LaunchKey(last)", trace.LaunchKey(app.Kernels[3]), "cbcf4dc4c6f29a061f65f3247ede2cfd4b8f3104f101075c4377d3e5e5f5f8a9"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

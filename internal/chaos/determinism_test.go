package chaos

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataplane"
)

// networkFingerprint renders the structural state of an emulated network
// — home cells, ring successors, and ISL peers per satellite — in a
// canonical order.
func networkFingerprint(n *dataplane.Network) string {
	ids := make([]int, 0, len(n.Sats))
	for id := range n.Sats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		s := n.Sats[id]
		fmt.Fprintf(&b, "sat %d cell %d ring %d peers %v\n", id, s.Cell, s.RingNext, s.Peers())
	}
	return b.String()
}

// Regression for testbed construction depending on map iteration order:
// the network builder (now mpc.BuildNetwork) used to assign each gateway
// satellite's home cell from whichever snapshot.Gateways key came up
// first, so two testbeds built from the same config could disagree on
// homes — and with them ring membership and the whole emulated topology.
func TestTestbedBuildIsDeterministic(t *testing.T) {
	build := func() string {
		tb, err := NewTestbed(testTestbed)
		if err != nil {
			t.Fatal(err)
		}
		return networkFingerprint(tb.Net)
	}
	first := build()
	for run := 1; run < 3; run++ {
		if got := build(); got != first {
			t.Fatalf("run %d built a different network:\n--- first\n%s--- run %d\n%s", run, first, run, got)
		}
	}
}

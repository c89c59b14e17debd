package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/geom"
	"repro/internal/mpc"
	"repro/internal/orbit"
	"repro/internal/routing"
	"repro/internal/texture"
)

// RealizeConstellation turns a sparsifier result into concrete satellites:
// x_j satellites on track j. Same-slot duplicates are phase-jittered by a
// few degrees so no two satellites coincide (DESIGN.md modeling note).
func RealizeConstellation(lib *texture.Library, res *core.Result) []orbit.Elements {
	var sats []orbit.Elements
	for j, x := range res.X {
		for k := 0; k < x; k++ {
			e := lib.Tracks[j].Elements
			e.Phase = geom.NormalizeAngle(e.Phase + geom.Deg2Rad(3*float64(k)))
			sats = append(sats, e)
		}
	}
	return sats
}

// NetworkFromSnapshot builds an emulated data plane from an MPC snapshot
// (mpc.BuildNetwork) with the default link rate and queue sizes.
func NetworkFromSnapshot(snap *mpc.Snapshot, sats []orbit.Elements) *dataplane.Network {
	n := dataplane.NewNetwork()
	mpc.BuildNetwork(n, snap, sats)
	return n
}

// StarlinkGridTopology builds the standard "+Grid" motif of Figure 19a for
// a multi-shell Walker constellation: each satellite links its two
// intra-plane neighbors and its nearest same-shell inter-plane neighbor.
// Returns the satellites and their links.
func StarlinkGridTopology(shells []baseline.Shell) ([]orbit.Elements, []mpc.Link) {
	var sats []orbit.Elements
	var links []mpc.Link
	base := 0
	for _, sh := range shells {
		w := sh.Config
		n := w.NumSatellites()
		sats = append(sats, w.Satellites()...)
		id := func(p, s int) int {
			return base + ((p+w.Planes)%w.Planes)*w.SatsPerPlane + (s+w.SatsPerPlane)%w.SatsPerPlane
		}
		for p := 0; p < w.Planes; p++ {
			for s := 0; s < w.SatsPerPlane; s++ {
				// Two intra-plane neighbors (emit the forward one only).
				links = append(links, mpc.MakeLink(id(p, s), id(p, s+1)))
				// One inter-plane neighbor (next plane, same slot).
				if w.Planes > 1 {
					links = append(links, mpc.MakeLink(id(p, s), id(p+1, s)))
				}
			}
		}
		base += n
	}
	// Deduplicate (wrap-around can repeat links on tiny shells).
	seen := map[mpc.Link]bool{}
	var out []mpc.Link
	for _, l := range links {
		if l[0] != l[1] && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return sats, out
}

// PathDelayOverLinks computes the propagation delay (s) of the shortest
// path between two satellites over the given link set at time t; the bool
// reports reachability.
func PathDelayOverLinks(sats []orbit.Elements, links []mpc.Link, src, dst int, t float64) (float64, int, bool) {
	pos := make([]geom.Vec3, len(sats))
	for i, e := range sats {
		pos[i] = e.PositionECI(t)
	}
	g := newGraph(len(sats))
	for _, l := range links {
		g.AddBiEdge(l[0], l[1], pos[l[0]].Dist(pos[l[1]]))
	}
	path, dist, ok := g.ShortestPath(src, dst)
	if !ok {
		return math.Inf(1), 0, false
	}
	return dist / geom.C, len(path) - 1, true
}

// newGraph aliases routing.NewGraph for brevity in this package.
func newGraph(n int) *routing.Graph { return routing.NewGraph(n) }

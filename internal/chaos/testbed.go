package chaos

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/baseline"
	"repro/internal/dataplane"
	"repro/internal/geo"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/orbit"
)

// TestbedConfig sizes the campaign testbed. Zero values take defaults
// chosen so a campaign runs in a few seconds.
type TestbedConfig struct {
	// Sats is the Walker constellation size (rounded down to a square).
	Sats int
	// CellDeg is the geographic cell size in degrees.
	CellDeg float64
	// Slots / SlotSeconds bound the supply horizon deriving the intent.
	Slots       int
	SlotSeconds float64
	// ISLRateBps / QueueLimit size the emulated links. The defaults are
	// deliberately narrow (2 Mbps, 128-packet queues) so demand surges
	// congest queues instead of disappearing into the paper's 200 Gbps.
	ISLRateBps float64
	QueueLimit int
}

func (c *TestbedConfig) fillDefaults() {
	if c.Sats <= 0 {
		c.Sats = 256
	}
	if c.CellDeg <= 0 {
		c.CellDeg = 10
	}
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 300
	}
	if c.ISLRateBps <= 0 {
		c.ISLRateBps = 2e6
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 128
	}
}

// Testbed is the campaign's system under test: a constellation, its mesh
// intent, the orbital MPC, one compiled snapshot, and the emulated data
// plane built from it.
type Testbed struct {
	Cfg  TestbedConfig
	Sats []orbit.Elements
	Topo *intent.Topology
	Ctl  *mpc.Controller
	Snap *mpc.Snapshot
	Net  *dataplane.Network
	// Cells are the intent cells with at least one homed satellite,
	// ascending.
	Cells []int
}

// NewTestbed builds the system under test: a Walker constellation, the
// mesh intent its coverage guarantees (§4.2's geographic invariant), a
// compiled slot-0 topology, and the emulated network.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	cfg.fillDefaults()
	side := int(math.Sqrt(float64(cfg.Sats)))
	if side < 2 {
		side = 2
	}
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200,
		Planes: side, SatsPerPlane: side, PhasingF: 1,
	}.Satellites()

	g := geo.MustGrid(cfg.CellDeg)
	cov := orbit.CoverageParams{MinElevation: orbit.DefaultCoverageParams.MinElevation / 2}
	supply := baseline.Supply(baseline.SupplyConfig{
		Grid: g, Slots: cfg.Slots, SlotSeconds: cfg.SlotSeconds, SubSamples: 1,
		Coverage: cov, CountSatellites: true,
	}, sats)
	guaranteed := intent.GuaranteedFromSupply(g, cfg.Slots, supply)

	// Grow a connected intent region from the best-guaranteed cell, capped
	// so gateway demand stays within the constellation's terminal budget.
	qualified := map[int]int{}
	seed, bestG := -1, 0
	for u := 0; u < g.NumCells(); u++ {
		if n := guaranteed[u]; n >= 3 {
			qualified[u] = n
			if n > bestG {
				seed, bestG = u, n
			}
		}
	}
	if seed < 0 {
		return nil, fmt.Errorf("chaos: no cells qualify for the testbed intent")
	}
	maxCells := len(sats) / 32
	if maxCells < 6 {
		maxCells = 6
	}
	region := map[int]int{seed: qualified[seed]}
	frontier := []int{seed}
	for len(frontier) > 0 && len(region) < maxCells {
		u := frontier[0]
		frontier = frontier[1:]
		for _, v := range g.Neighbors4(u) {
			if _, ok := region[v]; ok {
				continue
			}
			if n, ok := qualified[v]; ok {
				region[v] = n
				frontier = append(frontier, v)
				if len(region) >= maxCells {
					break
				}
			}
		}
	}
	topo := intent.MeshIntent(g, region, 1, 1)
	if len(topo.Cells()) < 2 || len(topo.Edges) == 0 {
		return nil, fmt.Errorf("chaos: testbed intent region degenerate (%d cells)", len(topo.Cells()))
	}

	ctl, err := mpc.New(mpc.Config{
		Topo: topo, Sats: sats, Coverage: cov,
		LifetimeHorizon: 2 * cfg.SlotSeconds, LifetimeStep: cfg.SlotSeconds / 5,
	})
	if err != nil {
		return nil, err
	}
	snap := ctl.Compile(0)

	tb := &Testbed{Cfg: cfg, Sats: sats, Topo: topo, Ctl: ctl, Snap: snap}
	tb.Net = dataplane.NewNetwork()
	tb.Net.ISLRateBps = cfg.ISLRateBps
	tb.Net.QueueLimit = cfg.QueueLimit
	mpc.BuildNetwork(tb.Net, snap, sats)
	for cell, members := range snap.CellSats {
		if len(members) > 0 {
			tb.Cells = append(tb.Cells, cell)
		}
	}
	sort.Ints(tb.Cells)
	if len(tb.Cells) < 2 {
		return nil, fmt.Errorf("chaos: testbed has %d populated cells", len(tb.Cells))
	}
	return tb, nil
}

// gatewayOf returns an injection satellite for a cell under snap: one of
// its gateway ring members (only gateways hold ISLs).
func gatewayOf(topo *intent.Topology, snap *mpc.Snapshot, cell int) (int, bool) {
	for _, v := range topo.Neighbors(cell) {
		if g := snap.Gateways[[2]int{cell, v}]; len(g) > 0 {
			return g[0], true
		}
	}
	return -1, false
}

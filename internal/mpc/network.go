package mpc

import (
	"sort"

	"repro/internal/dataplane"
	"repro/internal/orbit"
)

// BuildNetwork materializes snap in the emulated data plane n: gateway
// satellites homed to their duty cells, ISLs with speed-of-light delays
// at snap.Time, and the per-cell gateway rings. Satellites without a
// gateway duty hold no ISLs and are omitted. Links are connected in
// snapshot order (InterLinks, then RingLinks) with n's ISLRateBps and
// QueueLimit, so set those before calling.
func BuildNetwork(n *dataplane.Network, snap *Snapshot, sats []orbit.Elements) {
	// Gateway keys sorted: a satellite can hold duty under more than one
	// edge key (repair can double-book), and the first key seen decides
	// its home cell — iterating the map here made the emulated network
	// differ run to run.
	gwKeys := make([][2]int, 0, len(snap.Gateways))
	for key := range snap.Gateways {
		gwKeys = append(gwKeys, key)
	}
	sort.Slice(gwKeys, func(i, j int) bool {
		if gwKeys[i][0] != gwKeys[j][0] {
			return gwKeys[i][0] < gwKeys[j][0]
		}
		return gwKeys[i][1] < gwKeys[j][1]
	})
	for _, key := range gwKeys {
		for _, s := range snap.Gateways[key] {
			if n.Sats[s] == nil {
				n.AddSatellite(s, key[0])
			}
		}
	}
	addLink := func(l Link) {
		if n.Sats[l[0]] == nil || n.Sats[l[1]] == nil || n.Link(l[0], l[1]) != nil {
			return
		}
		n.Connect(l[0], l[1], LinkDelay(sats, l, snap.Time))
	}
	for _, l := range snap.InterLinks {
		addLink(l)
	}
	for _, l := range snap.RingLinks {
		addLink(l)
	}
	InstallRings(n, snap)
}

// LinkDelay is the speed-of-light one-way delay of ISL l at time t.
func LinkDelay(sats []orbit.Elements, l Link, t float64) float64 {
	return orbit.PropagationDelay(sats[l[0]].PositionECI(t), sats[l[1]].PositionECI(t))
}

// InstallRings points every gateway's ring successor along its cell's
// ring in snap, for each gateway home cell in ascending order. Ring
// membership follows the home cells already assigned in n.
func InstallRings(n *dataplane.Network, snap *Snapshot) {
	seen := map[int]bool{}
	for key := range snap.Gateways {
		seen[key[0]] = true
	}
	cells := make([]int, 0, len(seen))
	for cell := range seen {
		cells = append(cells, cell)
	}
	sort.Ints(cells)
	for _, cell := range cells {
		if ring := ringOrder(n, snap, cell); len(ring) >= 2 {
			n.SetRing(ring)
		}
	}
}

// ringOrder reconstructs the cyclic order of a cell's gateway ring from
// the snapshot's ring links, using the network's home-cell assignment for
// membership.
func ringOrder(n *dataplane.Network, snap *Snapshot, cell int) []int {
	inCell := map[int]bool{}
	for id, s := range n.Sats {
		if s.Cell == cell {
			inCell[id] = true
		}
	}
	adj := map[int][]int{}
	for _, l := range snap.RingLinks {
		if inCell[l[0]] && inCell[l[1]] {
			adj[l[0]] = append(adj[l[0]], l[1])
			adj[l[1]] = append(adj[l[1]], l[0])
		}
	}
	if len(adj) < 2 {
		return nil
	}
	// Walk the cycle (or chain) starting from the smallest member.
	start := -1
	for s := range adj {
		if start == -1 || s < start {
			start = s
		}
	}
	order := []int{start}
	prev, cur := -1, start
	for {
		next := -1
		for _, nb := range adj[cur] {
			if nb != prev {
				next = nb
				break
			}
		}
		if next == -1 || next == start {
			break
		}
		order = append(order, next)
		prev, cur = cur, next
		if len(order) > len(adj) {
			break // safety against malformed rings
		}
	}
	return order
}

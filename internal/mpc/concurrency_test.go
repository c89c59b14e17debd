package mpc

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestCompileConcurrentRepair races Compile calls for several slots
// against incremental Repair on the same controller, and so on the same
// propagation cache. Under -race it is the Controller's data-race
// regression test; each concurrent compile must also equal the
// sequential compile of an independent controller.
func TestCompileConcurrentRepair(t *testing.T) {
	const (
		slots = 4
		dt    = 300.0
	)
	c, _ := newController(t)
	base := c.Compile(0)
	if len(base.InterLinks) == 0 {
		t.Fatal("no inter-links to fail over")
	}
	ref, _ := newController(t)

	got := make([]*Snapshot, slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Compile(float64(i) * dt)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 3; k++ {
			fail := base.InterLinks[k%len(base.InterLinks)]
			repaired, _ := c.Repair(base, []Link{fail}, nil, 2*time.Millisecond)
			if repaired.LinkSet()[fail] {
				t.Errorf("repair %d kept the failed link %v", k, fail)
			}
		}
	}()
	wg.Wait()

	for i := range got {
		if want := ref.Compile(float64(i) * dt); !reflect.DeepEqual(got[i], want) {
			t.Errorf("slot %d: concurrent compile differs from sequential\ngot:  %v\nwant: %v", i, got[i], want)
		}
	}
}

// TestCompileReusesCache: a second sweep over the same slot times must
// serve its geometry from the propagation cache (hits strictly grow, no
// new propagation misses).
func TestCompileReusesCache(t *testing.T) {
	c, _ := newController(t)
	sweep := func() {
		for i := 0; i < 3; i++ {
			c.Compile(float64(i) * 300)
		}
	}
	sweep()
	first := c.CacheStats()
	sweep()
	second := c.CacheStats()
	if second.PosHits+second.LifeHits <= first.PosHits+first.LifeHits {
		t.Errorf("second sweep did not hit the cache: first %+v second %+v", first, second)
	}
	if second.PosMisses != first.PosMisses {
		t.Errorf("second sweep re-propagated: %d -> %d misses", first.PosMisses, second.PosMisses)
	}
}

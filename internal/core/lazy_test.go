package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/texture"
)

// fullScanArgmax is the reference Algorithm 1 argmax: score every track
// and keep the highest positive score, the lowest index on ties.
func fullScanArgmax(st *solverState) (best int, satisfiable, dot, norm2 float64) {
	best, norm2 = -1, 1
	for j := 0; j < st.p.Library.NumTracks(); j++ {
		if s, d, nn := st.score(j); s > satisfiable {
			best, satisfiable, dot, norm2 = j, s, d, nn
		}
	}
	return best, satisfiable, dot, norm2
}

// referenceSparsify is Sparsify with the full-scan argmax.
func referenceSparsify(p Problem) (*Result, error) {
	st := newSolverState(p)
	res := &Result{X: make([]int, p.Library.NumTracks())}
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 10 * len(res.X)
	}
	maxAdd := max(p.MaxAddPerIteration, 1)
	target := (1 - p.Epsilon) * st.total
	for res.Iterations < maxIter && st.remain > target+1e-9 {
		j, satisfiable, dot, norm2 := fullScanArgmax(st)
		if satisfiable <= 1e-12 {
			res.Availability = st.availability()
			return res, fmt.Errorf("%w: %.4f of demand satisfied", ErrNoProgress, res.Availability)
		}
		add := min(max(int(math.Ceil(dot/norm2)), 1), maxAdd)
		add = min(add, int(math.Ceil((st.remain-target)/satisfiable)))
		if p.MaxSatellites > 0 && res.Satellites+add > p.MaxSatellites {
			if add = p.MaxSatellites - res.Satellites; add <= 0 {
				break
			}
		}
		st.apply(j, add)
		res.X[j] += add
		res.Satellites += add
		res.Iterations++
		res.Trace = append(res.Trace, IterationStat{
			Iteration: res.Iterations, Track: j, Added: add,
			Satellites: res.Satellites, Availability: st.availability(),
		})
	}
	res.Availability = st.availability()
	if !p.DisablePrune {
		prune(p, res, nil)
	}
	return res, nil
}

// randomProblem draws a small library whose fractions are multiples of
// 1/6 and a quarter of whose tracks duplicate an earlier one, so exact
// score ties are common, plus a demand in multiples of 1/2 that leaves
// some cells uncoverable.
func randomProblem(rng *rand.Rand) Problem {
	grid := geo.MustGrid(45)
	slots := 1 + rng.Intn(3)
	unfolded := slots * grid.NumCells()
	n := 2 + rng.Intn(60)
	cols, vals := make([][]int32, n), make([][]float64, n)
	for j := range cols {
		if j > 0 && rng.Intn(4) == 0 {
			src := rng.Intn(j)
			cols[j], vals[j] = cols[src], vals[src]
			continue
		}
		for k := 0; k < unfolded; k++ {
			if rng.Intn(5) == 0 {
				cols[j] = append(cols[j], int32(k))
				vals[j] = append(vals[j], float64(1+rng.Intn(6))/6)
			}
		}
	}
	y := make([]float64, unfolded)
	for k := range y {
		y[k] = float64(rng.Intn(5)) / 2
	}
	p := Problem{
		Library:            texture.FromRows(grid, slots, 900, make([]texture.Track, n), cols, vals),
		Demand:             y,
		Epsilon:            []float64{0.5, 0.8, 0.95, 1}[rng.Intn(4)],
		MaxAddPerIteration: []int{0, 1, 3, 16}[rng.Intn(4)],
		DisablePrune:       rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		p.MaxSatellites = 1 + rng.Intn(20)
	}
	return p
}

// TestLazyArgmaxMatchesFullScan: on random tie-heavy libraries the lazy
// heap returns the reference result bit for bit, ErrNoProgress included.
func TestLazyArgmaxMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stuck, done int
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng)
		got, gotErr := Sparsify(p)
		want, wantErr := referenceSparsify(p)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: err %v, reference %v", trial, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: result differs from the full-scan reference:\n got %+v\nwant %+v", trial, got, want)
		}
		if errors.Is(gotErr, ErrNoProgress) {
			stuck++
		} else {
			done++
		}
	}
	if stuck == 0 || done == 0 {
		t.Fatalf("%d trials hit ErrNoProgress and %d finished; want both outcomes", stuck, done)
	}
}

// TestLazyArgmaxAnyResidualPath: the stale-bound heap stays exact under
// any sequence of residual decreases, not only the greedy one.
func TestLazyArgmaxAnyResidualPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		n := p.Library.NumTracks()
		st := newSolverState(p)
		st.buildHeap(n)
		for step := 0; step < 500; step++ {
			j, s, d, nn := st.argmax()
			rj, rs, rd, rnn := fullScanArgmax(st)
			if rs == 0 {
				if s != 0 {
					t.Fatalf("trial %d step %d: lazy score %v, reference found nothing", trial, step, s)
				}
				break
			}
			if j != rj || s != rs || d != rd || nn != rnn {
				t.Fatalf("trial %d step %d: lazy (%d %v %v %v), reference (%d %v %v %v)",
					trial, step, j, s, d, nn, rj, rs, rd, rnn)
			}
			st.apply(rng.Intn(n), 1+rng.Intn(3))
		}
	}
}

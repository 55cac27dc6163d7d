package analytic

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestLindleyAgreesWithCrommelin cross-validates the two independent
// M/D/1 waiting-time implementations against each other.
func TestLindleyAgreesWithCrommelin(t *testing.T) {
	for _, rho := range []float64{0.33, 0.7, 0.9} {
		q := MD1{Lambda: rho, Service: 1}
		// Higher rho has a longer tail: push the reflecting barrier
		// out so it does not distort the queried range.
		xMax, step := 25.0, 1.0/400
		if rho > 0.8 {
			xMax, step = 80, 1.0/200
		}
		l := SolveLindleyMD1(rho, 1, xMax, step)
		for _, x := range []float64{0, 0.25, 0.5, 1, 2, 3.5, 5, 8, 12} {
			a := q.WaitCDF(x)
			b := l.WaitCDF(x)
			// The Lindley grid overestimates slightly (right-edge
			// evaluation); allow a small absolute and relative band.
			if math.Abs(a-b) > 0.01*(1-a)+2e-3 {
				t.Errorf("rho=%v x=%v: series %v vs lindley %v", rho, x, a, b)
			}
		}
	}
}

func TestLindleyTailDecays(t *testing.T) {
	l := SolveLindleyMD1(0.7, 1, 25, 1.0/200)
	prev := 1.0
	for x := 0.0; x < 20; x += 0.5 {
		v := l.WaitTail(x)
		if v > prev+1e-9 {
			t.Fatalf("tail increased at %v: %v > %v", x, v, prev)
		}
		prev = v
	}
	// The grid method's accuracy floor is ~1e-4 at this step; the
	// true tail here is ~1e-6 (the 300-bit series resolves it; see
	// TestLindleyAgreesWithCrommelin for the mid-range check).
	if l.WaitTail(20) > 1e-3 {
		t.Errorf("tail at 20 service times = %v", l.WaitTail(20))
	}
}

func TestLindleyValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { SolveLindleyMD1(1, 1, 10, 0.01) },
		func() { SolveLindleyMD1(0.5, 1, 0.5, 0.01) },
		func() { SolveLindleyMD1(0.5, 1, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLindleyAtZero(t *testing.T) {
	l := SolveLindleyMD1(0.7, 1, 25, 1.0/400)
	if got := l.WaitCDF(0); math.Abs(got-0.3) > 5e-3 {
		t.Errorf("P(W=0) = %v, want ~0.3", got)
	}
	if l.WaitCDF(-1) != 0 {
		t.Error("negative t")
	}
	if l.WaitCDF(1000) != 1 {
		t.Error("beyond grid")
	}
}

// TestLindleyGridBits pins the converged grid bit for bit on a small
// grid: the hashes were recorded from the solver that recomputed both
// exponentials inside the iteration, so hoisting them out must not
// move a single bit.
func TestLindleyGridBits(t *testing.T) {
	for _, c := range []struct {
		rho  float64
		want uint64
	}{
		{0.7, 0x94eea9411127d129},
		{0.33, 0xf00a0578415864c7},
	} {
		l := SolveLindleyMD1(c.rho, 1, 10, 1.0/100)
		h := fnv.New64a()
		var b [8]byte
		for _, v := range l.grid {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); len(l.grid) != 1001 || got != c.want {
			t.Errorf("rho=%v: %d grid points, hash %#016x, want 1001 and %#016x", c.rho, len(l.grid), got, c.want)
		}
	}
}

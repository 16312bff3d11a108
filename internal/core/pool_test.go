package core

import (
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/ring"
)

// runMaxPool shares ys, runs the pooling protocol over the windows, and
// returns the reconstructed outputs.
func runMaxPool(t *testing.T, rg ring.Ring, ys []int64, windows [][]int, withReLU bool) []int64 {
	t.Helper()
	cn, sn, _, done := nonlinearPair(t, rg)
	defer done()
	rng := prg.New(prg.SeedFromInt(99))
	n := len(ys)
	y0 := make(ring.Vec, n)
	y1 := make(ring.Vec, n)
	for i, y := range ys {
		y1[i] = rng.Elem(rg)
		y0[i] = rg.Sub(rg.FromSigned(y), y1[i])
	}
	z1 := rng.Vec(rg, len(windows))
	var (
		cerr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cerr = cn.Reshare(Junction{Windows: windows, ReLU: withReLU}, y1, z1)
	}()
	z0, serr := sn.Reshare(Junction{Windows: windows, ReLU: withReLU}, y0)
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("maxpool: client=%v server=%v", cerr, serr)
	}
	out := make([]int64, len(windows))
	for i := range windows {
		out[i] = rg.Signed(rg.Add(z0[i], z1[i]))
	}
	return out
}

func TestMaxPoolProtocol(t *testing.T) {
	rg := ring.New(16)
	ys := []int64{5, -3, 9, 2, -8, -1, -7, -2, 0, 100, -100, 50}
	windows := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	got := runMaxPool(t, rg, ys, windows, false)
	want := []int64{9, -1, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d: %d want %d", i, got[i], want[i])
		}
	}
	gotRelu := runMaxPool(t, rg, ys, windows, true)
	wantRelu := []int64{9, 0, 100}
	for i := range wantRelu {
		if gotRelu[i] != wantRelu[i] {
			t.Errorf("relu window %d: %d want %d", i, gotRelu[i], wantRelu[i])
		}
	}
}

func TestMaxPoolGatheredOrder(t *testing.T) {
	// Windows referencing scattered indices (as real channel-major pooling
	// does) must gather correctly.
	rg := ring.New(16)
	ys := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	windows := [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}}
	got := runMaxPool(t, rg, ys, windows, false)
	if got[0] != 7 || got[1] != 8 {
		t.Fatalf("got %v, want [7 8]", got)
	}
}

func TestMaxPoolChunkBoundary(t *testing.T) {
	rg := ring.New(16)
	nWin := gcChunkWords/2 + 3 // two-value windows
	ys := make([]int64, nWin*2)
	windows := make([][]int, nWin)
	want := make([]int64, nWin)
	for i := 0; i < nWin; i++ {
		ys[2*i] = int64(i)
		ys[2*i+1] = int64(-i)
		windows[i] = []int{2 * i, 2*i + 1}
		want[i] = int64(i)
	}
	got := runMaxPool(t, rg, ys, windows, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d: %d want %d", i, got[i], want[i])
		}
	}
}

func TestMaxPoolValidation(t *testing.T) {
	cn, _, _, done := nonlinearPair(t, ring.New(16))
	defer done()
	if err := cn.Reshare(Junction{Windows: [][]int{{0, 1}, {2, 3}}}, make(ring.Vec, 4), make(ring.Vec, 1)); err == nil {
		t.Error("z1/window count mismatch accepted")
	}
	if err := cn.Reshare(Junction{Windows: [][]int{{0, 1}, {2}}}, make(ring.Vec, 4), make(ring.Vec, 2)); err == nil {
		t.Error("ragged windows accepted")
	}
	if err := cn.Reshare(Junction{Windows: [][]int{}}, make(ring.Vec, 4), nil); err == nil {
		t.Error("empty window set accepted")
	}
}

func TestArgmaxProtocol(t *testing.T) {
	rg := ring.New(32)
	cn, sn, _, done := nonlinearPair(t, rg)
	defer done()
	rng := prg.New(prg.SeedFromInt(7))
	scores := [][]int64{
		{10, -5, 30, 7},
		{-1, -2, -3, -4},
		{0, 0, 0, 1},
	}
	n, batch := 4, len(scores)
	y0 := make(ring.Vec, 0, n*batch)
	y1 := make(ring.Vec, 0, n*batch)
	for _, row := range scores {
		for _, v := range row {
			s1 := rng.Elem(rg)
			y1 = append(y1, s1)
			y0 = append(y0, rg.Sub(rg.FromSigned(v), s1))
		}
	}
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serr = sn.ArgmaxServer(y0, n, batch)
	}()
	got, cerr := cn.ArgmaxClient(y1, n, batch)
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("argmax: %v %v", cerr, serr)
	}
	want := []int{2, 0, 3}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("sample %d: argmax %d, want %d", k, got[k], want[k])
		}
	}
}

func TestArgmaxSingleCandidate(t *testing.T) {
	rg := ring.New(16)
	cn, sn, _, done := nonlinearPair(t, rg)
	defer done()
	y1 := ring.Vec{5}
	y0 := ring.Vec{rg.Sub(rg.FromSigned(-3), 5)}
	var (
		serr error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serr = sn.ArgmaxServer(y0, 1, 1)
	}()
	got, cerr := cn.ArgmaxClient(y1, 1, 1)
	wg.Wait()
	if cerr != nil || serr != nil {
		t.Fatalf("%v %v", cerr, serr)
	}
	if got[0] != 0 {
		t.Fatalf("argmax of singleton = %d", got[0])
	}
}

package livenet

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
)

// footprintNodes is sized so per-NM constants dominate the fixed
// process overhead (MM, hub, test harness) in the per-NM quotient.
const footprintNodes = 64

// TestPerNMFootprint enforces the profiling-driven footprint budget
// that makes 512–1024 in-process NMs possible. The seed design cost
// 3.02 goroutines and ~261 KiB of heap per idle NM (measured at 64
// NMs): 3 goroutines (NM loop, NM accept loop, MM-side serve) and two
// 64 KiB-buffered conn pairs. Hub mode deletes the per-NM listener and
// accept goroutine; the lite profile shrinks the read buffers to 8 KiB;
// the typed frames that replaced gob hold no per-link codec state; a
// conn writes each frame straight to its socket, with no write buffer.
// The ceilings below sit ~25 % over the measured numbers (2.03
// goroutines, 19.8 KiB per NM; 36.0 KiB while each conn had a write
// buffer, 90.7 KiB while gob codecs were per link) — a regression to
// per-NM accept loops, bulk or write buffers on lite conns or per-link
// codec state trips them.
func TestPerNMFootprint(t *testing.T) {
	heapNow := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	baseG := runtime.NumGoroutine()
	baseH := heapNow()

	hub, err := NewPeerHub("")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	mm, err := NewMM("127.0.0.1:0", MMConfig{Lite: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	var nms []*NM
	defer func() {
		for _, nm := range nms {
			nm.Close()
		}
	}()
	for i := 0; i < footprintNodes; i++ {
		nm, err := NewNMConfig(mm.Addr(), i, 4, NMConfig{Hub: hub, Lite: true})
		if err != nil {
			t.Fatal(err)
		}
		nms = append(nms, nm)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(mm.NMs()) < footprintNodes {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d NMs registered", len(mm.NMs()), footprintNodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	perG := float64(runtime.NumGoroutine()-baseG) / footprintNodes
	perH := float64(heapNow()-baseH) / footprintNodes
	t.Logf("idle footprint: %.2f goroutines/NM, %.1f KiB/NM (seed: 3.02, 261.0)", perG, perH/1024)
	// 2 structural goroutines per NM (its loop + the MM-side serve), a
	// hair of slack for shared machinery amortized across 64 nodes.
	if perG > 2.5 {
		t.Fatalf("idle goroutines/NM = %.2f, budget 2.5 (seed was 3.02) — per-NM accept loops are back?", perG)
	}
	if perH > 25*1024 {
		t.Fatalf("idle heap/NM = %.1f KiB, budget 25 KiB (seed was ~261) — bulk or write buffers, or codec state, on lite conns?", perH/1024)
	}

	// A launch must not permanently grow the per-NM goroutine count:
	// transfer goroutines are job-scoped, and a relay link's writer runs
	// only while frames wait for it; both must be gone when the job ends.
	launched := runtime.NumGoroutine()
	if _, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "fp", BinaryBytes: 512 << 10, Nodes: footprintNodes, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}, ImageSeed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	// Post-launch the tree edges stay warm — a read loop at each end of
	// a live relay edge is inherent (the seed paid the same ~2/edge) — so
	// settle to launched + 2 goroutines per node
	// rather than the idle baseline. Job-scoped transfer goroutines
	// beyond that must be reaped.
	testutil.WaitForGoroutines(t, launched+2*footprintNodes, 10*time.Second)
}

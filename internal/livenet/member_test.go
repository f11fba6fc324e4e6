package livenet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
)

// assertRow checks that every view of one node's placement eligibility —
// the membership row, the placement engine's own bit, and the node's
// NodeTable row — says the same thing, and that the row and NodeTable
// agree on the probation still owed.
func assertRow(t *testing.T, mm *MM, node int, step string, eligible bool, probation int) {
	t.Helper()
	mm.mu.Lock()
	row, bit := mm.row(node), mm.place.Eligible(node)
	mm.mu.Unlock()
	if row.eligible() != eligible || bit != eligible {
		t.Fatalf("%s: row eligible=%v, engine bit=%v, want %v", step, row.eligible(), bit, eligible)
	}
	if row.probation != probation {
		t.Fatalf("%s: row probation=%d, want %d", step, row.probation, probation)
	}
	for _, info := range mm.NodeTable() {
		if info.Node == node {
			if info.Eligible != eligible || info.Probation != probation {
				t.Fatalf("%s: NodeTable says eligible=%v probation=%d, want %v, %d",
					step, info.Eligible, info.Probation, eligible, probation)
			}
			return
		}
	}
	t.Fatalf("%s: node %d missing from NodeTable", step, node)
}

// waitRegistered polls until node's registration state is want.
func waitRegistered(t *testing.T, mm *MM, node int, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mm.mu.Lock()
		got := mm.row(node).link != nil
		mm.mu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d registered=%v never became %v", node, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMemberEligibility drives one membership row through its whole
// life under a running detector — register, convict (while the
// registration lingers), disconnect, rejoin on probation, probation
// served, disconnect — and after every step holds every view of the
// node's eligibility against the others.
func TestMemberEligibility(t *testing.T) {
	const n, victim = 3, 2
	const period = 100 * time.Millisecond
	gate := faultconn.NewGate()
	cfg := chaosMMConfig()
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		if node != victim {
			return NMConfig{}
		}
		return gatedNMConfig(gate)
	})
	fails := make(chan int, n)
	stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
	defer stop()
	assertRow(t, mm, victim, "registered", true, 0)

	// Convict: the node goes silent with its connection still up.
	gate.Pause()
	select {
	case node := <-fails:
		if node != victim {
			t.Fatalf("healthy node %d convicted", node)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("silent node never convicted")
	}
	waitRegistered(t, mm, victim, true)
	assertRow(t, mm, victim, "convicted, still registered", false, 0)

	nms[victim].Close()
	waitRegistered(t, mm, victim, false)
	assertRow(t, mm, victim, "convicted, disconnected", false, 0)

	nm2, err := NewNMConfig(mm.Addr(), victim, 4, NMConfig{Rejoin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nm2.Close)
	// The first vouched round is at least two ticks away (the new tree's
	// ledgers need a round to warm), so the full sentence is still owed.
	assertRow(t, mm, victim, "rejoined, on probation", false, rejoinProbation)

	deadline := time.Now().Add(10*period + 5*time.Second)
	for !nodeRow(mm, victim).eligible() {
		if time.Now().After(deadline) {
			t.Fatalf("probation never served (%d left)", nodeRow(mm, victim).probation)
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertRow(t, mm, victim, "probation served", true, 0)

	nm2.Close()
	waitRegistered(t, mm, victim, false)
	assertRow(t, mm, victim, "disconnected", false, 0)
}

// TestRejoinClearsDetectorState: a rejoin wipes what the detector held
// against the node's previous incarnation, directly on its row. The
// node is judged from a zero streak on its first post-rejoin tick, its
// old conviction is not reported again, and — the latch being gone — a
// new failure of the new incarnation is reported.
func TestRejoinClearsDetectorState(t *testing.T) {
	const n, victim = 3, 2
	const period = 50 * time.Millisecond
	mm, nms, _ := chaosCluster(t, n, chaosMMConfig(), nil)
	fails := make(chan int, n)
	stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
	defer stop()
	awaitConviction := func(what string) {
		t.Helper()
		select {
		case node := <-fails:
			if node != victim {
				t.Fatalf("%s: healthy node %d convicted", what, node)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: dead node never convicted", what)
		}
	}
	time.Sleep(3 * period) // settle: the detector has seen every node
	nms[victim].Close()
	awaitConviction("first incarnation")

	// Between ticks: an absence streak as a half-judged row would carry.
	mm.mu.Lock()
	mm.members[victim].streak = 1
	mm.mu.Unlock()
	nm2, err := NewNMConfig(mm.Addr(), victim, 4, NMConfig{Rejoin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nm2.Close)
	mm.mu.Lock()
	row := *mm.members[victim]
	mm.mu.Unlock()
	if row.convicted || row.streak != 0 || row.link == nil {
		t.Fatalf("row after rejoin: convicted=%v streak=%d registered=%v, want a clean registered row",
			row.convicted, row.streak, row.link != nil)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !nodeRow(mm, victim).eligible() {
		if time.Now().After(deadline) {
			t.Fatal("rejoined node never became eligible")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(4 * period)
	select {
	case node := <-fails:
		t.Fatalf("node %d reported failed after the rejoin without a new failure", node)
	default:
	}

	nm2.Close()
	awaitConviction("second incarnation")
}

// countedConn counts itself out of its owner's open-connection tally
// when closed.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// shutdownVerdict reports whether err is something a caller racing an MM
// shutdown may be told: nothing, that the MM closed (as the error itself
// or as its text, carried over the wire), or that the link died.
func shutdownVerdict(err error) bool {
	var op *net.OpError
	return err == nil || errors.Is(err, ErrMMClosed) || strings.Contains(err.Error(), "MM closed") ||
		errors.As(err, &op) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// TestShutdownRacesRegistrationAndSubmit is the insert-after-sweep audit
// (ROADMAP 0(c)) as a test: registrations, a rejoin and submissions race
// MM.Close and MM.Kill — and Close and Kill race each other — with the
// heartbeat, the strobe loop and (some rounds) the journal running. Every
// racer must come back with success or a shutdown verdict, every
// connection the MM accepted must be closed when shutdown returns, and
// no goroutine may outlive the teardown.
func TestShutdownRacesRegistrationAndSubmit(t *testing.T) {
	iters := 100 // at each GOMAXPROCS
	if testing.Short() {
		iters = 20
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			for it := 0; it < iters; it++ {
				shutdownRace(t, it)
			}
			waitForGoroutines(t, base, 5*time.Second)
		})
	}
}

func shutdownRace(t *testing.T, it int) {
	var open atomic.Int64
	cfg := MMConfig{FragBytes: 16 << 10, AckTimeout: time.Second, GangQuantum: 5 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn {
			open.Add(1)
			return &countedConn{Conn: c, open: &open}
		}}
	if it%8 == 0 {
		cfg.JournalDir = t.TempDir()
	}
	mm, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mm.StartHeartbeat(20*time.Millisecond, nil)
	var nmMu sync.Mutex
	var nms []*NM
	join := func(node int, rejoin bool) error {
		nm, err := NewNMConfig(mm.Addr(), node, 2, NMConfig{Rejoin: rejoin})
		if err == nil {
			nmMu.Lock()
			nms = append(nms, nm)
			nmMu.Unlock()
		}
		return err
	}
	for node := 0; node < 2; node++ {
		if err := join(node, false); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); len(mm.NMs()) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("NMs never registered")
		}
		time.Sleep(time.Millisecond)
	}

	spec := JobSpec{Name: "racer", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}}
	racers := map[string]func() error{
		"register": func() error { return join(2, false) },
		"rejoin":   func() error { return join(3, true) },
		"submit":   func() error { _, err := SubmitJob(mm.Addr(), spec); return err },
		"run":      func() error { _, err := mm.RunJob(spec); return err },
	}
	var wg sync.WaitGroup
	for name, racer := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := racer(); !shutdownVerdict(err) {
				t.Errorf("iteration %d: %s racing shutdown got %v", it, name, err)
			}
		}()
	}
	// Shut down somewhere inside the racers' first milliseconds — from
	// mid-dial to mid-launch — alternately Close, Kill, and both at once.
	time.Sleep(300*time.Microsecond + time.Duration(it%16)*200*time.Microsecond)
	stops := []func(){mm.Close, mm.Kill}
	if it%3 != 2 {
		stops = stops[it%3 : it%3+1]
	}
	var down sync.WaitGroup
	for _, stop := range stops {
		down.Add(1)
		go func() {
			defer down.Done()
			stop()
			if n := open.Load(); n != 0 {
				t.Errorf("iteration %d: %d connections still open when shutdown returned", it, n)
			}
		}()
	}
	down.Wait()
	wg.Wait()
	for _, nm := range nms {
		nm.Close()
	}
}

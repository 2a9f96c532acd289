package kernel

import (
	"testing"

	"ditto/internal/sim"
)

// run spawns fn as a thread of a fresh proc and drives the engine dry.
func run(t *testing.T, eng *sim.Engine, k *Kernel, name string, fn func(*Thread)) {
	t.Helper()
	k.NewProc(name).Spawn(name, fn)
	eng.Run()
}

// TestWriteFileMarksPagesDirty: the write path must track written pages as
// dirty in the page cache, not just insert them — the first half of the
// durability contract.
func TestWriteFileMarksPagesDirty(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	f := k.CreateFile("wal", 1<<20)
	run(t, eng, k, "db", func(th *Thread) {
		fd := th.Open("wal")
		th.WriteFile(fd, 3*PageBytes, 0)
		th.WriteFile(fd, 100, 8*PageBytes) // sub-page write dirties its page
		th.CloseFD(fd)
	})
	if got := f.DirtyPages(); got != 4 {
		t.Fatalf("dirty pages = %d, want 4", got)
	}
	if res := k.PageCacheResident(); res != 4 {
		t.Fatalf("resident pages = %d, want 4", res)
	}
	// Re-reading a dirty page is a cache hit and must not clean it.
	run(t, eng, k, "db2", func(th *Thread) {
		fd := th.Open("wal")
		th.Pread(fd, PageBytes, 0)
		th.CloseFD(fd)
	})
	hits, misses := k.PageCacheStats()
	if hits != 1 || misses != 0 {
		t.Fatalf("page cache hits/misses = %d/%d, want 1/0", hits, misses)
	}
	if got := f.DirtyPages(); got != 4 {
		t.Fatalf("dirty pages after read = %d, want 4", got)
	}
}

// TestDirtyEvictionForcesDiskWrite: when a dirty page falls off the LRU its
// data cannot be dropped — the eviction must force a device write, and a
// later fsync must wait for that writeback too.
func TestDirtyEvictionForcesDiskWrite(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachineSmallCache(eng, 8)
	f := k.CreateFile("data", 1<<20)
	run(t, eng, k, "db", func(th *Thread) {
		fd := th.Open("data")
		// 16 dirty pages through an 8-page cache: at least 8 evictions, each
		// forcing a writeback.
		for p := int64(0); p < 16; p++ {
			th.WriteFile(fd, PageBytes, p*PageBytes)
		}
		th.CloseFD(fd)
	})
	w := k.Resources().Disk.Counters().WriteBytes
	if w != 8*PageBytes {
		t.Fatalf("device write bytes = %d, want %d (8 forced writebacks)", w, 8*PageBytes)
	}
	if got := f.DirtyPages(); got != 8 {
		t.Fatalf("dirty pages = %d, want 8 (evicted ones are clean on disk)", got)
	}
}

// TestFsyncDurability: fsync must block until every dirty page of the file
// has drained to the device, and a second fsync with nothing dirty must not
// touch the disk.
func TestFsyncDurability(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	k.CreateFile("wal", 1<<20)
	var first, second sim.Time
	run(t, eng, k, "db", func(th *Thread) {
		fd := th.Open("wal")
		th.WriteFile(fd, 16*PageBytes, 0)
		s := th.Now()
		th.Fsync(fd)
		first = th.Now() - s
		if w := k.Resources().Disk.Counters().WriteBytes; w != 16*PageBytes {
			t.Errorf("device write bytes at fsync return = %d, want %d", w, 16*PageBytes)
		}
		s = th.Now()
		th.Fsync(fd)
		second = th.Now() - s
		th.CloseFD(fd)
	})
	if f := k.LookupFile("wal"); f.DirtyPages() != 0 {
		t.Fatalf("dirty pages after fsync = %d", f.DirtyPages())
	}
	if ops := k.Resources().Disk.Counters().WriteOps; ops != 1 {
		t.Fatalf("device write ops = %d, want 1 (contiguous pages coalesce)", ops)
	}
	if first <= second {
		t.Fatalf("fsync with dirty pages (%v) should outlast a clean fsync (%v)", first, second)
	}
	if k.Fsyncs() != 2 {
		t.Fatalf("fsync count = %d, want 2", k.Fsyncs())
	}
	if lat := k.FsyncLatency(); lat.Count() != 2 || lat.Mean() <= 0 {
		t.Fatalf("fsync latency recorder: count=%d mean=%v", lat.Count(), lat.Mean())
	}
}

// TestKillProcDropsUnfsyncedDirty: a crashed process loses its un-fsynced
// writes — they are dropped from the dirty set and never reach the device,
// even if another process fsyncs the same file afterwards.
func TestKillProcDropsUnfsyncedDirty(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	f := k.CreateFile("wal", 1<<20)
	victim := k.NewProc("victim")
	victim.Spawn("w", func(th *Thread) {
		fd := th.Open("wal")
		th.WriteFile(fd, 8*PageBytes, 0)
		th.CloseFD(fd)
	})
	eng.Run()
	if f.DirtyPages() != 8 {
		t.Fatalf("dirty pages before crash = %d", f.DirtyPages())
	}
	eng.After(0, func() { k.KillProc(victim) })
	eng.Run()
	if f.DirtyPages() != 0 {
		t.Fatalf("dirty pages after crash = %d, want 0", f.DirtyPages())
	}
	// A later fsync by a survivor finds nothing to flush.
	run(t, eng, k, "survivor", func(th *Thread) {
		fd := th.Open("wal")
		th.Fsync(fd)
		th.CloseFD(fd)
	})
	if w := k.Resources().Disk.Counters().WriteBytes; w != 0 {
		t.Fatalf("device saw %d bytes of the crashed process's writes", w)
	}
}

// TestFsyncSurvivesKillProc: the other half of the contract — data whose
// fsync completed before the crash is on stable storage and stays there,
// while a sibling's un-fsynced file contributes nothing.
func TestFsyncSurvivesKillProc(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachine(eng, "m", 1)
	k.CreateFile("committed", 1<<20)
	k.CreateFile("lost", 1<<20)
	a := k.NewProc("a")
	a.Spawn("wa", func(th *Thread) {
		fd := th.Open("committed")
		th.WriteFile(fd, 4*PageBytes, 0)
		th.Fsync(fd)
		th.CloseFD(fd)
	})
	b := k.NewProc("b")
	b.Spawn("wb", func(th *Thread) {
		fd := th.Open("lost")
		th.WriteFile(fd, 4*PageBytes, 0)
		th.CloseFD(fd)
	})
	eng.Run()
	eng.After(0, func() { k.KillProc(a); k.KillProc(b) })
	eng.Run()
	if w := k.Resources().Disk.Counters().WriteBytes; w != 4*PageBytes {
		t.Fatalf("device write bytes after double crash = %d, want %d (fsynced file only)",
			w, 4*PageBytes)
	}
	if f := k.LookupFile("lost"); f.DirtyPages() != 0 {
		t.Fatalf("crashed writer left %d dirty pages", f.DirtyPages())
	}
}

// TestFsyncWaitsForEvictionWriteback: an fsync issued while an evicted dirty
// page's writeback is still in flight must wait for that write too.
func TestFsyncWaitsForEvictionWriteback(t *testing.T) {
	eng := sim.NewEngine()
	k := testMachineSmallCache(eng, 4)
	k.CreateFile("data", 1<<20)
	run(t, eng, k, "db", func(th *Thread) {
		fd := th.Open("data")
		for p := int64(0); p < 6; p++ { // 2 evictions in flight
			th.WriteFile(fd, PageBytes, p*PageBytes)
		}
		th.Fsync(fd)
		// Everything — the 2 evicted writebacks and the 4 still-dirty
		// pages — must be on the device before fsync returns.
		if w := k.Resources().Disk.Counters().WriteBytes; w != 6*PageBytes {
			t.Errorf("device write bytes at fsync return = %d, want %d", w, 6*PageBytes)
		}
		th.CloseFD(fd)
	})
}

// testMachineSmallCache is testMachine with a tiny page cache, for
// overflow-path tests.
func testMachineSmallCache(eng *sim.Engine, pages int) *Kernel {
	k := testMachine(eng, "m", 1)
	k.pages = newPageLRU(pages)
	k.pages.onEvict = k.pageEvicted
	return k
}

// ---- pageLRU overflow table (satellite: direct LRU coverage) ----

// lruOp is one scripted page-cache operation.
type lruOp struct {
	op   string // "insert", "insertDirty", "touch", "setClean"
	page int64
}

func TestPageLRUOverflowTable(t *testing.T) {
	cases := []struct {
		name        string
		cap         int
		ops         []lruOp
		wantOrder   []int64 // resident pages, MRU first
		wantEvicted []int64 // eviction order
		wantDirtyEv []bool  // dirty flag of each eviction
	}{
		{
			name: "working set exceeds capacity evicts in LRU order",
			cap:  3,
			ops: []lruOp{{"insert", 1}, {"insert", 2}, {"insert", 3},
				{"insert", 4}, {"insert", 5}},
			wantOrder:   []int64{5, 4, 3},
			wantEvicted: []int64{1, 2},
			wantDirtyEv: []bool{false, false},
		},
		{
			name: "re-touch promotes and changes the eviction victim",
			cap:  3,
			ops: []lruOp{{"insert", 1}, {"insert", 2}, {"insert", 3},
				{"touch", 1}, {"insert", 4}},
			wantOrder:   []int64{4, 1, 3},
			wantEvicted: []int64{2},
			wantDirtyEv: []bool{false},
		},
		{
			name:        "touch miss inserts and can itself evict",
			cap:         2,
			ops:         []lruOp{{"insert", 1}, {"insert", 2}, {"touch", 3}},
			wantOrder:   []int64{3, 2},
			wantEvicted: []int64{1},
			wantDirtyEv: []bool{false},
		},
		{
			name: "dirty page eviction reports the writeback",
			cap:  2,
			ops: []lruOp{{"insertDirty", 1}, {"insert", 2}, {"insert", 3},
				{"insert", 4}},
			wantOrder:   []int64{4, 3},
			wantEvicted: []int64{1, 2},
			wantDirtyEv: []bool{true, false},
		},
		{
			name: "setClean before eviction suppresses the writeback",
			cap:  2,
			ops: []lruOp{{"insertDirty", 1}, {"setClean", 1}, {"insert", 2},
				{"insert", 3}},
			wantOrder:   []int64{3, 2},
			wantEvicted: []int64{1},
			wantDirtyEv: []bool{false},
		},
		{
			name: "re-dirtying a resident page promotes it and keeps it dirty",
			cap:  3,
			ops: []lruOp{{"insertDirty", 1}, {"insert", 2}, {"insertDirty", 1},
				{"insert", 3}, {"insert", 4}},
			wantOrder:   []int64{4, 3, 1},
			wantEvicted: []int64{2},
			wantDirtyEv: []bool{false},
		},
		{
			name:        "recycled node does not inherit the dirty bit",
			cap:         1,
			ops:         []lruOp{{"insertDirty", 1}, {"insert", 2}, {"insert", 3}},
			wantOrder:   []int64{3},
			wantEvicted: []int64{1, 2},
			wantDirtyEv: []bool{true, false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newPageLRU(tc.cap)
			var evicted []int64
			var dirtyEv []bool
			l.onEvict = func(key pageKey, dirty bool) {
				evicted = append(evicted, key.page)
				dirtyEv = append(dirtyEv, dirty)
			}
			for _, op := range tc.ops {
				key := pageKey{file: 1, page: op.page}
				switch op.op {
				case "insert":
					l.insert(key)
				case "insertDirty":
					l.insertDirty(key)
				case "touch":
					l.touch(key)
				case "setClean":
					l.setClean(key)
				}
			}
			var order []int64
			for n := l.head; n != nil; n = n.next {
				order = append(order, n.key.page)
			}
			if !int64SliceEq(order, tc.wantOrder) {
				t.Errorf("residency order = %v, want %v", order, tc.wantOrder)
			}
			if !int64SliceEq(evicted, tc.wantEvicted) {
				t.Errorf("evicted = %v, want %v", evicted, tc.wantEvicted)
			}
			if len(dirtyEv) != len(tc.wantDirtyEv) {
				t.Fatalf("dirty flags = %v, want %v", dirtyEv, tc.wantDirtyEv)
			}
			for i := range dirtyEv {
				if dirtyEv[i] != tc.wantDirtyEv[i] {
					t.Errorf("eviction %d dirty = %v, want %v", i, dirtyEv[i], tc.wantDirtyEv[i])
				}
			}
			if len(l.m) != len(tc.wantOrder) {
				t.Errorf("resident count = %d, want %d", len(l.m), len(tc.wantOrder))
			}
		})
	}
}

func int64SliceEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package mem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The oracle is the map-and-pointer representation mem used before
// the dense layout: one heap *page per logical page in a
// map[int64]*page, a stable tree of *frame, and one queue entry per
// written page guarded by a per-page generation. It is kept verbatim,
// apart from names and one diagnostic, as the reference the
// differential test below holds Host to.
//
// The diagnostic: each queue entry also records which incarnation of
// the page it was queued for. The old queue could not tell a freed
// and re-created page from the page it replaced, so an entry queued
// before a Free could scan the new page early
// (TestFreedPageStaleEntrySkipped). staleHits counts how often that
// happened, so the differential test can tell the one intended
// divergence from a real one.

type oFrame struct {
	hash uint64
	refs int64
}

type oPage struct {
	hash uint64
	f    *oFrame
	gen  uint64
}

type oRef struct {
	space *oSpace
	idx   int64
	gen   uint64
	pg    *oPage // diagnostic: the incarnation this entry was queued for
}

type oHost struct {
	capacity      int64
	spaces        map[string]*oSpace
	stable        map[uint64]*oFrame
	pending       []oRef
	framesPrivate int64
	scrubbed      int64
	merged        int64
	cowBreaks     int64
	staleHits     int // diagnostic: scans of a re-created page by a stale entry
}

type oSpace struct {
	host   *oHost
	name   string
	pages  map[int64]*oPage
	nextUn uint64
	dead   bool
}

func newOracle(capacity int64) *oHost {
	return &oHost{capacity: capacity, spaces: map[string]*oSpace{}, stable: map[uint64]*oFrame{}}
}

func (h *oHost) NewSpace(name string) (*oSpace, error) {
	if _, ok := h.spaces[name]; ok {
		return nil, fmt.Errorf("mem: space %q already exists", name)
	}
	s := &oSpace{host: h, name: name, pages: make(map[int64]*oPage)}
	h.spaces[name] = s
	return s, nil
}

func (h *oHost) UsedBytes() int64 {
	return (h.framesPrivate + int64(len(h.stable))) * PageSize
}

func (h *oHost) Stats() Stats {
	var shared, sharing, saved int64
	for _, f := range h.stable {
		if f.refs >= 2 {
			shared++
			sharing += f.refs
			saved += (f.refs - 1) * PageSize
		}
	}
	return Stats{
		UsedBytes:     h.UsedBytes(),
		PagesShared:   shared,
		PagesSharing:  sharing,
		SavedBytes:    saved,
		PendingScan:   int64(len(h.pending)),
		ScrubbedBytes: h.scrubbed,
		MergedPages:   h.merged,
		COWBreaks:     h.cowBreaks,
	}
}

func (h *oHost) Scan(maxPages int) int {
	mergedNow := 0
	processed := 0
	for len(h.pending) > 0 && (maxPages < 0 || processed < maxPages) {
		ref := h.pending[0]
		h.pending = h.pending[1:]
		pg, ok := ref.space.pages[ref.idx]
		if !ok || pg.gen != ref.gen || pg.f != nil {
			continue
		}
		if pg != ref.pg {
			h.staleHits++
		}
		processed++
		if f, ok := h.stable[pg.hash]; ok {
			f.refs++
			pg.f = f
			h.framesPrivate--
			h.merged++
			mergedNow++
			continue
		}
		f := &oFrame{hash: pg.hash, refs: 1}
		h.stable[pg.hash] = f
		pg.f = f
		h.framesPrivate--
	}
	return mergedNow
}

func (h *oHost) ScanAll() int { return h.Scan(-1) }

func (s *oSpace) TouchedPages() int64 { return int64(len(s.pages)) }

func oClassHash(class string, i int64) uint64 {
	hsh := fnv.New64a()
	hsh.Write([]byte(class))
	var b [8]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(i) >> (8 * k))
	}
	hsh.Write(b[:])
	return hsh.Sum64()
}

func (s *oSpace) WriteClass(start, n int64, class string, classBase int64) error {
	return s.write(start, n, func(i int64) uint64 {
		return oClassHash(class, classBase+i)
	})
}

func (s *oSpace) WriteZero(start, n int64) error {
	return s.write(start, n, func(int64) uint64 { return zeroHash })
}

func (s *oSpace) WriteUnique(start, n int64) error {
	return s.write(start, n, func(int64) uint64 {
		s.nextUn++
		return oClassHash("unique/"+s.name, int64(s.nextUn))
	})
}

func (s *oSpace) write(start, n int64, content func(i int64) uint64) error {
	if s.dead {
		return fmt.Errorf("mem: write to released space %q", s.name)
	}
	if n < 0 || start < 0 {
		return fmt.Errorf("mem: invalid write range start=%d n=%d", start, n)
	}
	h := s.host
	for i := int64(0); i < n; i++ {
		idx := start + i
		hash := content(i)
		pg, exists := s.pages[idx]
		if exists {
			if pg.hash == hash {
				continue
			}
			s.detach(pg)
			pg.hash = hash
			pg.gen++
			h.pending = append(h.pending, oRef{s, idx, pg.gen, pg})
			continue
		}
		if h.capacity != 0 && h.UsedBytes()+PageSize > h.capacity {
			return fmt.Errorf("%w: space %q at %d pages", ErrOutOfMemory, s.name, len(s.pages))
		}
		pg = &oPage{hash: hash}
		s.pages[idx] = pg
		h.framesPrivate++
		h.pending = append(h.pending, oRef{s, idx, pg.gen, pg})
	}
	return nil
}

func (s *oSpace) detach(pg *oPage) {
	if pg.f == nil {
		return
	}
	h := s.host
	if pg.f.refs >= 2 {
		h.cowBreaks++
	}
	pg.f.refs--
	if pg.f.refs == 0 {
		delete(h.stable, pg.f.hash)
	}
	pg.f = nil
	h.framesPrivate++
}

func (s *oSpace) Free(start, n int64) {
	for i := int64(0); i < n; i++ {
		if pg, ok := s.pages[start+i]; ok {
			s.detach(pg)
			s.host.framesPrivate--
			delete(s.pages, start+i)
		}
	}
}

func (s *oSpace) Release() {
	h := s.host
	for idx, pg := range s.pages {
		s.detach(pg)
		h.framesPrivate--
		h.scrubbed += PageSize
		delete(s.pages, idx)
	}
	s.dead = true
	delete(h.spaces, s.name)
}

// errString renders an error for comparison; nil is the empty string.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// differential drives a Host and the oracle through one seeded random
// script and fails on the first observable difference. It returns how
// often the oracle scanned a page through a stale entry.
func differential(t *testing.T, seed int64, ops int) int {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var capacity int64
	if r.Intn(3) == 0 {
		capacity = int64(64+r.Intn(192)) * PageSize
	}
	h, o := NewHost(capacity), newOracle(capacity)
	var names []string
	spaces := map[string]*Space{}
	oSpaces := map[string]*oSpace{}
	classes := []string{"base", "lib", "u"}
	made := 0

	check := func(step int, op string) {
		t.Helper()
		if got, want := h.Stats(), o.Stats(); got != want {
			t.Fatalf("seed %d step %d %s: stats\n got %+v\nwant %+v", seed, step, op, got, want)
		}
		if got, want := h.UsedBytes(), o.UsedBytes(); got != want {
			t.Fatalf("seed %d step %d %s: used %d, want %d", seed, step, op, got, want)
		}
		for _, name := range names {
			if got, want := spaces[name].TouchedPages(), oSpaces[name].TouchedPages(); got != want {
				t.Fatalf("seed %d step %d %s: space %s touched %d, want %d", seed, step, op, name, got, want)
			}
		}
	}

	for step := 0; step < ops; step++ {
		if len(names) == 0 || (made < 6 && r.Intn(12) == 0) {
			name := fmt.Sprintf("vm%d", made)
			if len(names) > 0 && r.Intn(8) == 0 {
				name = names[r.Intn(len(names))] // duplicate: both must refuse
			}
			s, err := h.NewSpace(name)
			osp, oerr := o.NewSpace(name)
			if errString(err) != errString(oerr) {
				t.Fatalf("seed %d step %d: NewSpace(%q) err %v, want %v", seed, step, name, err, oerr)
			}
			if err == nil {
				made++
				names = append(names, name)
				spaces[name], oSpaces[name] = s, osp
			}
			check(step, "NewSpace")
			continue
		}
		k := r.Intn(len(names))
		name := names[k]
		s, osp := spaces[name], oSpaces[name]
		start := int64(r.Intn(48))
		n := int64(r.Intn(24))
		var op string
		var err, oerr error
		switch c := r.Intn(20); {
		case c < 5:
			class := classes[r.Intn(len(classes))]
			base := int64(r.Intn(8))
			op = fmt.Sprintf("WriteClass(%d,%d,%s,%d) on %s", start, n, class, base, name)
			err, oerr = s.WriteClass(start, n, class, base), osp.WriteClass(start, n, class, base)
		case c < 8:
			op = fmt.Sprintf("WriteZero(%d,%d) on %s", start, n, name)
			err, oerr = s.WriteZero(start, n), osp.WriteZero(start, n)
		case c < 11:
			op = fmt.Sprintf("WriteUnique(%d,%d) on %s", start, n, name)
			err, oerr = s.WriteUnique(start, n), osp.WriteUnique(start, n)
		case c < 14:
			op = fmt.Sprintf("Free(%d,%d) on %s", start, n, name)
			s.Free(start, n)
			osp.Free(start, n)
		case c < 15:
			op = "Release " + name
			s.Release()
			osp.Release()
			names = append(names[:k], names[k+1:]...)
			// Writes to the released space must fail alike; keep it
			// around for one probe.
			if e1, e2 := s.WriteZero(0, 1), osp.WriteZero(0, 1); errString(e1) != errString(e2) || e1 == nil {
				t.Fatalf("seed %d step %d: write after release: %v vs %v", seed, step, e1, e2)
			}
		case c < 17:
			op = "ScanAll"
			if got, want := h.ScanAll(), o.ScanAll(); got != want {
				t.Fatalf("seed %d step %d ScanAll: merged %d, want %d", seed, step, got, want)
			}
		default:
			budget := r.Intn(40)
			op = fmt.Sprintf("Scan(%d)", budget)
			hits := o.staleHits
			got, want := h.Scan(budget), o.Scan(budget)
			if o.staleHits != hits {
				// The oracle scanned a re-created page through an entry
				// queued before its Free; Host skips that entry and
				// reaches a different page within the same budget.
				// The two agree again once both drain.
				gotAll, wantAll := h.ScanAll(), o.ScanAll()
				if got+gotAll != want+wantAll {
					t.Fatalf("seed %d step %d %s then drain: merged %d+%d, want %d+%d",
						seed, step, op, got, gotAll, want, wantAll)
				}
				op += " (stale entry in oracle) + ScanAll"
			} else if got != want {
				t.Fatalf("seed %d step %d %s: merged %d, want %d", seed, step, op, got, want)
			}
		}
		if errString(err) != errString(oerr) {
			t.Fatalf("seed %d step %d %s: err %v, want %v", seed, step, op, err, oerr)
		}
		check(step, op)
	}
	for _, name := range names {
		spaces[name].Release()
		oSpaces[name].Release()
	}
	check(ops, "final Release")
	if h.UsedBytes() != 0 {
		t.Fatalf("seed %d: %d bytes still in use after releasing every space", seed, h.UsedBytes())
	}
	return o.staleHits
}

// TestDifferentialAgainstOracle replays seeded random scripts of
// NewSpace, the three writes, Free, Release, ScanAll and budgeted
// Scan against Host and the oracle, comparing every Stats field,
// UsedBytes, each space's TouchedPages and every Scan result after
// every op. The scripts must also reach the one intended divergence,
// or the allowance for it would go untested.
func TestDifferentialAgainstOracle(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 40
	}
	staleHits := 0
	for seed := int64(1); seed <= seeds; seed++ {
		staleHits += differential(t, seed, 400)
	}
	if staleHits == 0 {
		t.Fatal("no script scanned a re-created page through a stale entry")
	}
}

// TestHashesMatchOracle pins the inlined FNV-1a to hash/fnv: class and
// unique pages hash exactly as the oracle hashes them.
func TestHashesMatchOracle(t *testing.T) {
	for _, class := range []string{"", "baseimg", "unique/anon0"} {
		seed := fnvString(fnvOffset, class)
		for _, i := range []int64{0, 1, 255, 256, 1 << 40, -1} {
			if got, want := fnvOffsetHash(seed, i), oClassHash(class, i); got != want {
				t.Fatalf("hash(%q, %d) = %#x, want %#x", class, i, got, want)
			}
		}
	}
	h := NewHost(0)
	s := mustSpace(t, h, "anon0")
	s.WriteUnique(0, 2)
	if got, want := s.pages[1].hash, oClassHash("unique/anon0", 2); got != want {
		t.Fatalf("second unique page hash = %#x, want %#x", got, want)
	}
}

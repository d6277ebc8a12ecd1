// Package mem models host physical memory at page granularity,
// including KSM (kernel samepage merging). Nymix enables KSM because
// every AnonVM, CommVM and the hypervisor boot from the same base
// image, so a large fraction of their resident pages have identical
// contents and can share a single physical frame (paper section 4.2,
// Figure 3).
//
// Pages are not stored as real 4 KiB buffers; each logical page carries
// a 64-bit content hash. Pages written from the same content class
// (for example, the same base-image block) hash equally across address
// spaces and are therefore mergeable, exactly the property KSM keys on.
//
// The layout is dense and holds no pointer per page, so the garbage
// collector has almost nothing to trace however much memory a host
// models. Each Space keeps a slice of page values indexed by page
// number. Physical frames live in one table per host, recycled through
// a free list, and the KSM stable tree maps a content hash to a frame
// index. The scan queue holds one run of pages per write call rather
// than one entry per page; every write call takes a fresh host-wide
// sequence number, and a queued page is scanned only while its own
// sequence number still equals its run's, so a rewrite, Free or
// Release turns the queued entry stale without touching the queue.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the size of one page in bytes (4 KiB, as on x86-64).
const PageSize = 4096

// ErrOutOfMemory is returned when an allocation would exceed the
// host's physical capacity.
var ErrOutOfMemory = errors.New("mem: out of host memory")

// frame is one physical page frame in the KSM stable tree. refs counts
// the logical pages it backs; a frame with no refs is on the free list.
type frame struct {
	hash uint64
	refs int64
}

// page is one logical page slot in a Space.
type page struct {
	hash  uint64
	seq   uint64 // write sequence number of the last content change
	frame int32  // index into Host.frames; 0 while the page is private
	live  bool
}

// run is a queued range [start, end) of pages that one write call
// gave content under sequence number seq.
type run struct {
	space      *Space
	start, end int64
	seq        uint64
}

// Host models a machine's physical memory and its KSM daemon state.
type Host struct {
	capacity int64 // bytes; 0 means unlimited
	spaces   map[string]*Space
	frames   []frame // frames[0] is unused so a zero page.frame means none
	free     []int32 // indices of frames with no refs
	stable   map[uint64]int32
	queue    []run // runs awaiting the scanner; queue[head:] is pending
	head     int
	pending  int64  // pages in queue[head:]
	seq      uint64 // last write sequence number handed out
	// framesPrivate counts logical pages not yet absorbed into the
	// stable tree; each occupies its own physical frame.
	framesPrivate int64
	shared        int64 // frames with 2+ refs
	sharing       int64 // refs held on frames with 2+ refs
	scrubbed      int64 // bytes securely erased over the host's lifetime
	merged        int64 // pages merged by KSM over the host's lifetime
	cowBreaks     int64 // copy-on-write breaks of shared frames
}

// NewHost returns a host with the given physical capacity in bytes.
// A capacity of zero disables the limit.
func NewHost(capacity int64) *Host {
	return &Host{
		capacity: capacity,
		spaces:   make(map[string]*Space),
		frames:   make([]frame, 1),
		stable:   make(map[uint64]int32),
	}
}

// Capacity returns the host's physical memory size in bytes (0 =
// unlimited).
func (h *Host) Capacity() int64 { return h.capacity }

// NewSpace creates a named address space (one per VM, plus one for the
// hypervisor itself). Space names must be unique on a host.
func (h *Host) NewSpace(name string) (*Space, error) {
	if _, ok := h.spaces[name]; ok {
		return nil, fmt.Errorf("mem: space %q already exists", name)
	}
	s := &Space{host: h, name: name, uniqueSeed: fnvString(fnvOffset, "unique/"+name)}
	h.spaces[name] = s
	return s, nil
}

// Space returns the named space, or nil.
func (h *Host) Space(name string) *Space { return h.spaces[name] }

// UsedBytes returns physical memory in use: one frame per unscanned
// page plus one frame per stable-tree entry (shared or not).
func (h *Host) UsedBytes() int64 {
	return (h.framesPrivate + int64(len(h.stable))) * PageSize
}

// Stats is a snapshot of the host's memory accounting, mirroring the
// counters Linux exposes under /sys/kernel/mm/ksm.
type Stats struct {
	UsedBytes     int64 // physical bytes in use
	PagesShared   int64 // physical frames backing 2+ logical pages
	PagesSharing  int64 // logical pages backed by shared frames
	SavedBytes    int64 // bytes reclaimed by merging
	PendingScan   int64 // pages queued for the KSM scanner
	ScrubbedBytes int64 // lifetime securely-erased bytes
	MergedPages   int64 // lifetime pages merged
	COWBreaks     int64 // lifetime copy-on-write breaks
}

// Stats returns the current accounting snapshot.
func (h *Host) Stats() Stats {
	return Stats{
		UsedBytes:     h.UsedBytes(),
		PagesShared:   h.shared,
		PagesSharing:  h.sharing,
		SavedBytes:    (h.sharing - h.shared) * PageSize,
		PendingScan:   h.pending,
		ScrubbedBytes: h.scrubbed,
		MergedPages:   h.merged,
		COWBreaks:     h.cowBreaks,
	}
}

// Scan runs the KSM scanner over up to maxPages queued pages and
// returns the number of pages merged into existing frames. Pass a
// negative maxPages to drain the queue. Queued pages that were since
// rewritten, freed or released are skipped and do not count against
// maxPages.
func (h *Host) Scan(maxPages int) int {
	mergedNow := 0
	processed := 0
	for h.head < len(h.queue) && (maxPages < 0 || processed < maxPages) {
		r := &h.queue[h.head]
		pages := r.space.pages
		for r.start < r.end && (maxPages < 0 || processed < maxPages) {
			if r.start >= int64(len(pages)) { // space released
				h.pending -= r.end - r.start
				r.start = r.end
				break
			}
			// A sequence number names one write call, which gives each
			// page at most once, so a page matching its run has not
			// been absorbed yet.
			pg := &pages[r.start]
			r.start++
			h.pending--
			if !pg.live || pg.seq != r.seq {
				continue // page freed or rewritten since it was queued
			}
			processed++
			if fi, ok := h.stable[pg.hash]; ok {
				h.ref(fi)
				pg.frame = fi
				h.framesPrivate--
				h.merged++
				mergedNow++
				continue
			}
			pg.frame = h.newFrame(pg.hash)
			h.framesPrivate--
		}
		if r.start == r.end {
			*r = run{}
			h.head++
		}
	}
	if h.head == len(h.queue) {
		h.queue, h.head = h.queue[:0], 0
	}
	return mergedNow
}

// ScanAll drains the scan queue, returning total pages merged.
func (h *Host) ScanAll() int { return h.Scan(-1) }

// enqueue queues pages [start, end) of s, written under seq, for the
// scanner. Once the backing array is full, the consumed prefix is
// reclaimed before it grows.
func (h *Host) enqueue(s *Space, start, end int64, seq uint64) {
	if start == end {
		return
	}
	if h.head > 0 && len(h.queue) == cap(h.queue) {
		n := copy(h.queue, h.queue[h.head:])
		clear(h.queue[n:])
		h.queue, h.head = h.queue[:n], 0
	}
	h.queue = append(h.queue, run{space: s, start: start, end: end, seq: seq})
	h.pending += end - start
}

// newFrame puts hash into the stable tree on a fresh frame with one
// ref and returns the frame's index.
func (h *Host) newFrame(hash uint64) int32 {
	var fi int32
	if n := len(h.free); n > 0 {
		fi = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		fi = int32(len(h.frames))
		h.frames = append(h.frames, frame{})
	}
	h.frames[fi] = frame{hash: hash, refs: 1}
	h.stable[hash] = fi
	return fi
}

// ref adds a ref to frame fi, keeping the sharing counters current.
func (h *Host) ref(fi int32) {
	f := &h.frames[fi]
	f.refs++
	switch {
	case f.refs == 2:
		h.shared++
		h.sharing += 2
	case f.refs > 2:
		h.sharing++
	}
}

// detach disconnects a page from its stable frame (a copy-on-write
// break when the frame was shared). Afterwards the page is in the
// private state and counted in framesPrivate; detaching an
// already-private page is a no-op.
func (h *Host) detach(pg *page) {
	if pg.frame == 0 {
		return
	}
	f := &h.frames[pg.frame]
	switch {
	case f.refs == 2:
		h.shared--
		h.sharing -= 2
		h.cowBreaks++
	case f.refs > 2:
		h.sharing--
		h.cowBreaks++
	}
	f.refs--
	if f.refs == 0 {
		delete(h.stable, f.hash)
		h.free = append(h.free, pg.frame)
	}
	pg.frame = 0
	h.framesPrivate++
}

// Space is one address space (a VM's RAM plus its RAM-backed writable
// disk, since Nymix VMs store all file-system writes in host RAM).
// Its pages are stored densely by page number, so a space costs memory
// up to the highest page ever written.
type Space struct {
	host       *Host
	name       string
	pages      []page
	touched    int64  // live pages
	uniqueSeed uint64 // FNV-1a state after "unique/"+name
	nextUn     uint64 // counter for unique (never-mergeable) content
	dead       bool
}

// Name returns the space's name.
func (s *Space) Name() string { return s.name }

// TouchedPages returns the number of resident logical pages.
func (s *Space) TouchedPages() int64 { return s.touched }

// TouchedBytes returns resident logical bytes (before any sharing).
func (s *Space) TouchedBytes() int64 { return s.touched * PageSize }

// 64-bit FNV-1a parameters (hash/fnv's New64a), inlined so a page's
// hash extends a precomputed class-name state without allocating.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString extends FNV-1a state h with the bytes of s.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnvOffsetHash extends FNV-1a state h, taken after a content class
// name, with the little-endian bytes of page offset i. The result is
// the page's stable 64-bit content identifier.
func fnvOffsetHash(h uint64, i int64) uint64 {
	for k := 0; k < 8; k++ {
		h ^= uint64(i) >> (8 * k) & 0xff
		h *= fnvPrime
	}
	return h
}

// zeroHash is the content hash of the all-zero page. All zero pages on
// a host are mergeable with each other.
const zeroHash = 0x5a45524f50414745 // "ZEROPAGE"

// WriteClass writes n pages starting at page index start with content
// drawn from the named class. Pages written from the same class and
// offset in any space are identical and thus KSM-mergeable. The i-th
// page gets the content of class offset classBase+i.
func (s *Space) WriteClass(start, n int64, class string, classBase int64) error {
	seed := fnvString(fnvOffset, class)
	return s.write(start, n, func(i int64) uint64 {
		return fnvOffsetHash(seed, classBase+i)
	})
}

// WriteZero writes n zero pages starting at start. Zero pages merge
// host-wide.
func (s *Space) WriteZero(start, n int64) error {
	return s.write(start, n, func(int64) uint64 { return zeroHash })
}

// WriteUnique dirties n pages starting at start with content that can
// never merge with any other page (models private, modified state such
// as browser heaps).
func (s *Space) WriteUnique(start, n int64) error {
	return s.write(start, n, func(int64) uint64 {
		s.nextUn++
		return fnvOffsetHash(s.uniqueSeed, int64(s.nextUn))
	})
}

// write gives pages [start, start+n) the content hashes content(i)
// under one fresh sequence number and queues every page whose content
// changed. A page rewritten with the content it already holds keeps
// its sequence number, frame and any queued entry; it splits the run,
// so the queue counts exactly the pages that changed.
func (s *Space) write(start, n int64, content func(i int64) uint64) error {
	if s.dead {
		return fmt.Errorf("mem: write to released space %q", s.name)
	}
	if n < 0 || start < 0 {
		return fmt.Errorf("mem: invalid write range start=%d n=%d", start, n)
	}
	if n == 0 {
		return nil
	}
	h := s.host
	h.seq++
	seq := h.seq
	end := start + n
	if grow := end - int64(len(s.pages)); grow > 0 {
		s.pages = append(s.pages, make([]page, grow)...)
	}
	runStart := start
	for idx := start; idx < end; idx++ {
		hash := content(idx - start)
		pg := &s.pages[idx]
		if pg.live {
			if pg.hash == hash {
				h.enqueue(s, runStart, idx, seq) // idempotent rewrite
				runStart = idx + 1
				continue
			}
			h.detach(pg)
		} else {
			if h.capacity != 0 && h.UsedBytes()+PageSize > h.capacity {
				h.enqueue(s, runStart, idx, seq)
				return fmt.Errorf("%w: space %q at %d pages", ErrOutOfMemory, s.name, s.touched)
			}
			pg.live = true
			s.touched++
			h.framesPrivate++
		}
		pg.hash = hash
		pg.seq = seq
	}
	h.enqueue(s, runStart, end, seq)
	return nil
}

// Free releases n pages starting at start. Missing pages are skipped.
func (s *Space) Free(start, n int64) {
	end := min(start+n, int64(len(s.pages)))
	for idx := max(start, 0); idx < end; idx++ {
		if pg := &s.pages[idx]; pg.live {
			s.host.detach(pg)
			s.host.framesPrivate--
			pg.live = false
			s.touched--
		}
	}
}

// Release securely erases and frees the entire space, as Nymix does
// when a pseudonym is shut down: "Nymix wipes any traces that the
// pseudonym ever existed and securely erases the AnonVM's and
// CommVM's memory immediately" (section 3.4).
func (s *Space) Release() {
	h := s.host
	for idx := range s.pages {
		if pg := &s.pages[idx]; pg.live {
			h.detach(pg)
			h.framesPrivate--
			h.scrubbed += PageSize
		}
	}
	s.pages = nil
	s.touched = 0
	s.dead = true
	delete(h.spaces, s.name)
}

// Package anserve is the analysis service: long-lived, concurrent,
// cache-backed serving of Janitizer's static analysis. The paper's central
// economics (§3.3–3.4) are that expensive whole-module analysis runs *once*
// and its rewrite-rule artifact (.jrw) is reused across program runs and
// across every binary linking a shared library. This package turns that
// one-shot CLI story into serving infrastructure:
//
//   - a content-addressed rule cache (two tiers: in-memory LRU with a byte
//     budget, optional on-disk artifact store with a size cap and
//     checksum-framed entries), keyed by the SHA-256 of the module
//     serialization plus the tool name/configuration;
//   - a concurrent dependency-aware scheduler: a bounded worker pool that
//     analyzes a program closure's modules in topological order (libraries
//     before the binaries that need them) and deduplicates concurrent
//     submissions of the same module (singleflight);
//   - an HTTP front end (cmd/janitizerd) exposing POST /analyze,
//     POST /analyze/batch, GET /stats, GET /healthz and GET /readyz with
//     admission control, per-tenant quotas and graceful drain on shutdown;
//   - a fleet mode (internal/cluster) that consistent-hash-shards the cache
//     across N daemons with peer cache fill.
package anserve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obj"
)

// CacheKey returns the content address of one (module, tool configuration)
// analysis artifact: hex SHA-256 over the module's content hash and the
// tool key. Stable across processes — obj.Module.Hash is canonical — and
// across fleet members, which is what makes consistent-hash placement
// (internal/cluster) agree on an owner for every artifact.
func CacheKey(mod *obj.Module, tool core.Tool) string {
	h := sha256.New()
	mh := mod.Hash()
	h.Write(mh[:])
	h.Write([]byte{0})
	h.Write([]byte(core.ToolKey(tool)))
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats are the cache tier counters, readable via Service.Stats and
// GET /stats.
type CacheStats struct {
	MemHits       uint64 `json:"mem_hits"`
	MemMisses     uint64 `json:"mem_misses"`
	DiskHits      uint64 `json:"disk_hits"`
	DiskMisses    uint64 `json:"disk_misses"`
	Evictions     uint64 `json:"evictions"`
	Puts          uint64 `json:"puts"`
	MemBytes      int64  `json:"mem_bytes"`
	MemEntries    int    `json:"mem_entries"`
	DiskEvictions uint64 `json:"disk_evictions"`
	DiskCorrupt   uint64 `json:"disk_corrupt"`
}

// Hits returns the total hits across both tiers.
func (s CacheStats) Hits() uint64 { return s.MemHits + s.DiskHits }

// Cache is the two-tier content-addressed rule cache. The memory tier is an
// LRU bounded by a byte budget; the optional disk tier stores one framed
// artifact per key under dir/<key>.jrw and survives process restarts. A
// disk hit is promoted into the memory tier. Safe for concurrent use.
//
// Disk entries are checksum-framed (magic + SHA-256 + payload): a
// truncated, garbled or foreign file is treated as a miss and deleted, not
// trusted and not fatal. When a disk budget is set, a put that pushes the
// tier over budget garbage-collects least-recently-used entries,
// approximated by file mtime (reads touch their entry).
type Cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	dir    string
	stats  CacheStats

	diskBudget int64
	diskMu     sync.Mutex // serializes GC scans, not data-path IO
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache returns a cache with the given memory budget in bytes (<= 0
// disables the memory tier) and optional disk directory ("" disables the
// disk tier; the directory is created on first use). The disk tier is
// unbounded; use NewCacheDisk to cap it.
func NewCache(memBudget int64, dir string) *Cache {
	return NewCacheDisk(memBudget, dir, 0)
}

// NewCacheDisk is NewCache with a disk-tier byte budget (<= 0: unbounded).
func NewCacheDisk(memBudget int64, dir string, diskBudget int64) *Cache {
	return &Cache{
		budget:     memBudget,
		ll:         list.New(),
		items:      map[string]*list.Element{},
		dir:        dir,
		diskBudget: diskBudget,
	}
}

// diskMagic frames every disk-tier entry: 4 magic bytes, the SHA-256 of the
// payload, then the payload. Anything that fails the frame check — short
// file, wrong magic, checksum mismatch — is a corrupt entry.
var diskMagic = []byte("jrw\x01")

const diskHeaderLen = 4 + sha256.Size

// frameDisk wraps an artifact for the disk tier.
func frameDisk(val []byte) []byte {
	out := make([]byte, 0, diskHeaderLen+len(val))
	out = append(out, diskMagic...)
	sum := sha256.Sum256(val)
	out = append(out, sum[:]...)
	return append(out, val...)
}

// unframeDisk validates a disk entry and returns its payload.
func unframeDisk(b []byte) ([]byte, bool) {
	if len(b) < diskHeaderLen || !bytes.Equal(b[:4], diskMagic) {
		return nil, false
	}
	payload := b[diskHeaderLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(b[4:diskHeaderLen], sum[:]) {
		return nil, false
	}
	return payload, true
}

// Get returns the artifact stored under key, or nil, false. The returned
// slice is shared — callers must not modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.MemHits++
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, true
	}
	c.stats.MemMisses++
	c.mu.Unlock()

	if c.dir == "" {
		return nil, false
	}
	path := c.diskPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.mu.Lock()
		c.stats.DiskMisses++
		c.mu.Unlock()
		return nil, false
	}
	val, ok := unframeDisk(raw)
	if !ok {
		// Corrupt-entry tolerance: a truncated or garbled artifact is a
		// miss, and the bad file is removed so it cannot keep tripping.
		os.Remove(path)
		c.mu.Lock()
		c.stats.DiskCorrupt++
		c.stats.DiskMisses++
		c.mu.Unlock()
		return nil, false
	}
	// Touch: disk GC evicts by mtime, so a read refreshes its entry.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.DiskHits++
	c.insertMemLocked(key, val)
	return val, true
}

// Put stores the artifact under key in both tiers. The cache keeps a
// reference to val — callers must not modify it afterwards.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	c.stats.Puts++
	c.insertMemLocked(key, val)
	c.mu.Unlock()

	if c.dir == "" {
		return
	}
	// Disk writes are best-effort: a failed write only costs a future
	// re-analysis. Write-then-rename keeps concurrent readers from
	// observing partial artifacts.
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".jrw-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(frameDisk(val)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	tmp.Close()
	if err := os.Rename(tmp.Name(), c.diskPath(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if c.diskBudget > 0 {
		c.gcDisk()
	}
}

// gcDisk brings the disk tier back under budget by deleting
// least-recently-used entries (oldest mtime first).
func (c *Cache) gcDisk() {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type fileInfo struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jrw") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	if total <= c.diskBudget {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	var evicted uint64
	for _, f := range files {
		if total <= c.diskBudget {
			break
		}
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			total -= f.size
			evicted++
		}
	}
	if evicted > 0 {
		c.mu.Lock()
		c.stats.DiskEvictions += evicted
		c.mu.Unlock()
	}
}

// insertMemLocked adds an entry to the memory tier and evicts from the LRU
// tail until the budget holds. Entries larger than the whole budget are not
// cached in memory at all.
func (c *Cache) insertMemLocked(key string, val []byte) {
	if c.budget <= 0 || int64(len(val)) > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.used += int64(len(val)) - int64(len(ent.val))
		ent.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.used += int64(len(val))
	}
	for c.used > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, ent.key)
		c.used -= int64(len(ent.val))
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemBytes = c.used
	s.MemEntries = len(c.items)
	return s
}

// DiskReady reports whether the disk tier can accept writes: the directory
// exists (created if needed) and a probe file round-trips. A cache without
// a disk tier is trivially ready.
func (c *Cache) DiskReady() error {
	if c.dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(c.dir, ".readyz-*")
	if err != nil {
		return err
	}
	name := probe.Name()
	_, werr := probe.Write([]byte("ok"))
	cerr := probe.Close()
	os.Remove(name)
	if werr != nil {
		return werr
	}
	return cerr
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".jrw")
}

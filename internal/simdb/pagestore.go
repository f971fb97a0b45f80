package simdb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// PageStore is a content-addressed blob store hosted by the simulated
// database — the storage half of the deduplicated model registry. Pages are
// keyed by their sha256 and stored at most once: publishing a fine-tuned
// model variant whose encoder pages match the base model's pays round trips
// only for its manifest and the pages that actually changed.
//
// Every operation pays the server's latency model and is recorded in the
// accounting ledger, so registry traffic shows up in the same intrusiveness
// numbers as detection scans. Operations are also subject to the server's
// probabilistic fault injection (classified as queries), which the registry's
// callers must tolerate like any other database client.
type PageStore struct {
	server *Server

	mu        sync.Mutex
	pages     map[PageHash][]byte
	manifests map[string][]byte
	order     []string // manifest keys in first-put order
}

// PageHash identifies a page by its sha256 digest.
type PageHash [32]byte

func (h PageHash) String() string { return fmt.Sprintf("%x", h[:]) }

// PageStore returns the server's page store, creating it on first use.
func (s *Server) PageStore() *PageStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pageStore == nil {
		s.pageStore = &PageStore{
			server:    s,
			pages:     make(map[PageHash][]byte),
			manifests: make(map[string][]byte),
		}
	}
	return s.pageStore
}

// blobTransferUnit is how many blob bytes cost one PerCell of transfer
// latency; pages move in bulk, unlike the small per-cell values of a scan.
const blobTransferUnit = 256

func (p *PageStore) payTransfer(ctx context.Context, op, detail string, n int) error {
	d := p.server.decide(opQuery, detail)
	lat := p.server.latency
	transfer := time.Duration(n/blobTransferUnit) * lat.PerCell
	if err := lat.sleep(ctx, scaleDur(lat.QueryRoundTrip+transfer, d.slowFactor)); err != nil {
		return err
	}
	p.server.acct.addQuery()
	return d.err
}

// PutPage stores data under its hash unless an identical page is already
// present. It reports whether the page was newly stored; a deduplicated put
// pays only the existence-check round trip, not the transfer.
func (p *PageStore) PutPage(ctx context.Context, hash PageHash, data []byte) (added bool, err error) {
	start := time.Now()
	defer func() { observeOp("page_put", start, err) }()
	p.mu.Lock()
	_, exists := p.pages[hash]
	p.mu.Unlock()
	n := len(data)
	if exists {
		n = 0 // hash-only existence check, no payload on the wire
	}
	if err := p.payTransfer(ctx, "page_put", "pagestore/"+hash.String(), n); err != nil {
		return false, err
	}
	if exists {
		return false, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, raced := p.pages[hash]; raced {
		return false, nil
	}
	p.pages[hash] = append([]byte(nil), data...)
	p.server.acct.addPagePut(len(data))
	pagesStoredTotal.Inc()
	pageBytesStored.Add(int64(len(data)))
	return true, nil
}

// GetPage retrieves the page with the given hash.
func (p *PageStore) GetPage(ctx context.Context, hash PageHash) (_ []byte, err error) {
	start := time.Now()
	defer func() { observeOp("page_get", start, err) }()
	p.mu.Lock()
	data, ok := p.pages[hash]
	p.mu.Unlock()
	n := 0
	if ok {
		n = len(data)
	}
	if err := p.payTransfer(ctx, "page_get", "pagestore/"+hash.String(), n); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("simdb: page %s not found", hash)
	}
	p.server.acct.addBlobRead(len(data))
	return append([]byte(nil), data...), nil
}

// PutManifest stores an opaque manifest blob under a caller-chosen key,
// failing if the key already exists — registry versions are immutable.
func (p *PageStore) PutManifest(ctx context.Context, key string, data []byte) (err error) {
	start := time.Now()
	defer func() { observeOp("manifest_put", start, err) }()
	if err := p.payTransfer(ctx, "manifest_put", "pagestore/manifest/"+key, len(data)); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.manifests[key]; dup {
		return fmt.Errorf("simdb: manifest %q already exists", key)
	}
	p.manifests[key] = append([]byte(nil), data...)
	p.order = append(p.order, key)
	return nil
}

// GetManifest retrieves a manifest blob by key.
func (p *PageStore) GetManifest(ctx context.Context, key string) (_ []byte, err error) {
	start := time.Now()
	defer func() { observeOp("manifest_get", start, err) }()
	p.mu.Lock()
	data, ok := p.manifests[key]
	p.mu.Unlock()
	n := 0
	if ok {
		n = len(data)
	}
	if err := p.payTransfer(ctx, "manifest_get", "pagestore/manifest/"+key, n); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("simdb: manifest %q not found", key)
	}
	p.server.acct.addBlobRead(len(data))
	return append([]byte(nil), data...), nil
}

// ListManifests returns all manifest keys in first-put order (one query).
func (p *PageStore) ListManifests(ctx context.Context) (_ []string, err error) {
	start := time.Now()
	defer func() { observeOp("manifest_get", start, err) }()
	if err := p.payTransfer(ctx, "manifest_list", "pagestore/manifests", 0); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...), nil
}

// RestorePage installs a page without paying client latency or accounting —
// it models server-side crash recovery (replaying a redo log), not client
// traffic. Existing pages are left alone, preserving dedup counts.
func (p *PageStore) RestorePage(hash PageHash, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.pages[hash]; ok {
		return
	}
	p.pages[hash] = append([]byte(nil), data...)
	pagesStoredTotal.Inc()
	pageBytesStored.Add(int64(len(data)))
}

// RestoreManifest installs a manifest during server-side recovery. Duplicate
// keys are ignored (the journal may be replayed more than once).
func (p *PageStore) RestoreManifest(key string, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.manifests[key]; ok {
		return
	}
	p.manifests[key] = append([]byte(nil), data...)
	p.order = append(p.order, key)
}

// PageStoreStats summarizes physical storage. Logical (pre-dedup) sizes are
// the registry's concern; the store only knows what it actually holds.
type PageStoreStats struct {
	Pages     int   `json:"pages"`
	PageBytes int64 `json:"page_bytes"`
	Manifests int   `json:"manifests"`
}

// Stats reports physical page and manifest counts. It is a local observation
// (no simulated round trip): servers surface their own storage metrics.
func (p *PageStore) Stats() PageStoreStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var bytes int64
	for _, d := range p.pages {
		bytes += int64(len(d))
	}
	return PageStoreStats{
		Pages:     len(p.pages),
		PageBytes: bytes,
		Manifests: len(p.manifests),
	}
}

// sortedPageHashes is a test helper surface: deterministic page enumeration.
func (p *PageStore) sortedPageHashes() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.pages))
	for h := range p.pages {
		out = append(out, h.String())
	}
	sort.Strings(out)
	return out
}

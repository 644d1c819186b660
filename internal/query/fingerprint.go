package query

import (
	"sync/atomic"
	"unsafe"
)

// fpCell is a fingerprint together with the query it was computed for. It is
// immutable once stored. The owner pointer is what keeps a struct copy
// honest: `q2 := *q` copies q's cell, whose owner is still q, so q2 reads as
// "not fingerprinted yet" and an edited copy can never serve the original's
// fingerprint. (A real pointer, not an address: it keeps q alive for as long
// as a copy carries its cell, so the address cannot be reused by a third
// query.)
type fpCell struct {
	owner *Query
	fp    uint64
}

// CachedFingerprint returns the fingerprint stored on q by CacheFingerprint
// and whether one is there. Safe for concurrent use.
func (q *Query) CachedFingerprint() (uint64, bool) {
	// A plain unsafe.Pointer under the sync/atomic functions rather than an
	// atomic.Pointer[fpCell]: queries are copied by value (tests derive
	// variants that way) and the typed atomics are no-copy under `go vet`.
	c := (*fpCell)(atomic.LoadPointer(&q.fp))
	if c == nil || c.owner != q {
		return 0, false
	}
	return c.fp, true
}

// CacheFingerprint stores fp on q for CachedFingerprint. It is the
// plan cache's once-per-query memo slot (plancache.Cache.FingerprintOf);
// the query IR itself does not know what a fingerprint hashes. Callers
// racing on a shared query all store the same value, so either store may
// win. As with every consumer of a planned query, q's logical content must
// not be edited in place afterwards — derive a copy instead.
func (q *Query) CacheFingerprint(fp uint64) {
	atomic.StorePointer(&q.fp, unsafe.Pointer(&fpCell{owner: q, fp: fp}))
}

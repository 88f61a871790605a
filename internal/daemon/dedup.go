// ID-keyed answer cache for retry-safe exactly-once command execution.
//
// Transport retries legitimately duplicate frames: a write can reach the
// daemon and still look failed to the sender (connection lost before the
// reply, a retried frame after a slow accept, a fault-injected dup), and
// the client's mux retransmits unanswered calls under the same ID. The
// serve pipeline therefore answers each distinct (sender, ID) at most
// once from the handler and replays the recorded reply for every
// duplicate — a retried `mutate -op reanchor` must not rekey twice.

package daemon

import "sync"

// defaultDedupCap is the default bound on remembered replies.
const defaultDedupCap = 1024

// dedupEntry is one command's slot in the cache. done closes when the
// leader (the first arrival of the ID) has recorded its reply; body is
// the encoded Reply (encodeReply) duplicates replay.
type dedupEntry struct {
	done chan struct{}
	body []byte
}

// dedupKey scopes an ID to its sender: IDs are unique per client
// instance (nonce + counter), and the sender keeps two clients that
// picked the same transport name from colliding across IDs they never
// saw.
type dedupKey struct{ from, id string }

// dedupCache is the bounded ID-keyed reply cache. Entries are inserted
// when a command's first copy is dispatched; only completed entries are
// evictable (an in-flight entry is pinned by its running leader, and
// duplicate arrivals park on its done channel), so the map can briefly
// exceed cap by the number of in-flight commands.
type dedupCache struct {
	mu      sync.Mutex
	cap     int
	entries map[dedupKey]*dedupEntry
	// completed is a ring of the completed entries' keys: it grows to
	// cap, then completed[oldest] is the next to age out.
	completed []dedupKey
	oldest    int
}

// newDedupCache builds a cache bounded at cap completed entries;
// cap <= 0 selects defaultDedupCap.
func newDedupCache(cap int) *dedupCache {
	if cap <= 0 {
		cap = defaultDedupCap
	}
	return &dedupCache{cap: cap, entries: make(map[dedupKey]*dedupEntry)}
}

// begin claims the ID. The first caller per ID is the leader
// (leader=true): it must execute the command and call finish. Later
// callers receive the existing entry and leader=false: they wait on
// entry.done and replay entry.body.
func (c *dedupCache) begin(key dedupKey) (entry *dedupEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &dedupEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// finish records the leader's encoded reply, releases waiting
// duplicates, and evicts the oldest completed entry beyond cap,
// reporting how many it aged out.
func (c *dedupCache) finish(key dedupKey, body []byte) (evictedNow int64) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.body = body
		if len(c.completed) < c.cap {
			c.completed = append(c.completed, key)
		} else {
			delete(c.entries, c.completed[c.oldest])
			c.completed[c.oldest] = key
			c.oldest = (c.oldest + 1) % c.cap
			evictedNow++
		}
	}
	c.mu.Unlock()
	if ok {
		close(e.done)
	}
	return evictedNow
}

// size reports the number of cached entries (in-flight included).
func (c *dedupCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

package wal

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jointadmin/internal/clock"
)

// BenchmarkWALAppend measures the append path under the three durability
// policies (see docs/OPERATIONS.md): fsync on every append, group-commit
// batching, and no sync at all. The batch series runs parallel appenders
// so one flush amortizes over many records — the effect the policy
// exists for.
func BenchmarkWALAppend(b *testing.B) {
	payload, _ := json.Marshal(map[string]string{"group": "G_write", "subject": "alice"})
	rec := func(i int) Record {
		return Record{Type: TypeRevocation, At: clock.Time(i), Body: payload}
	}

	b.Run("sync-every", func(b *testing.B) {
		l, _, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(rec(i), true); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, window := range []time.Duration{time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("batch-%s", window), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{BatchWindow: window})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var i atomic.Int64
			// RunParallel defaults to GOMAXPROCS goroutines — on a small
			// host that can mean a lone appender paying the full batch
			// window per op, which inverts the ratio group commit exists
			// to improve. 64× oversubscription keeps the window shared, so
			// ns/op reads as per-append acknowledged latency with a full
			// commit group (throughput = concurrency / ns_per_op).
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(rec(int(i.Add(1))), true); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}

	b.Run("nosync", func(b *testing.B) {
		l, _, err := Open(b.TempDir(), Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(rec(i), true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadFromTail measures the shipper's steady-state read: one
// record past the cursor, at the head of a log of 10², 10³ and 10⁴
// audit-sized (≈4 KB) records.
func BenchmarkReadFromTail(b *testing.B) {
	audit := body(strings.Repeat("a", 4<<10))
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			for i := range n {
				if _, err := l.Append(Record{Type: TypeAudit, At: clock.Time(i), Body: audit}, false); err != nil {
					b.Fatal(err)
				}
			}
			head := l.Seq()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if recs, _, err := l.ReadFrom(head-1, 1, 0); err != nil || len(recs) != 1 {
					b.Fatalf("ReadFrom(%d, 1) = %d records, %v", head-1, len(recs), err)
				}
			}
		})
	}
}

// auditLog opens a log in a fresh directory holding n audit-sized (≈4 KB)
// records, the first half compacted into the snapshot when split is set.
func auditLog(b *testing.B, n int, split bool) *Log {
	b.Helper()
	l, _, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	audit := body(strings.Repeat("a", 4<<10))
	for i := range n {
		if split && i == n/2 {
			if err := l.Compact(nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := l.Append(Record{Type: TypeAudit, At: clock.Time(i), Body: audit}, false); err != nil {
			b.Fatal(err)
		}
	}
	return l
}

// BenchmarkCompact measures one compaction of a retained history of 10²,
// 10³ and 10⁴ audit-sized records: read the snapshot and the log, write
// the new snapshot, truncate the log. Every iteration after the first
// compacts the snapshot the one before it wrote.
func BenchmarkCompact(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			l := auditLog(b, n, false)
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := l.Compact(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistory measures the snapshot handoff's read of a retained
// history of 10², 10³ and 10⁴ audit-sized records, half of them in the
// snapshot and half in the log.
func BenchmarkHistory(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			l := auditLog(b, n, true)
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if recs, _, err := l.History(); err != nil || len(recs) != n {
					b.Fatalf("History = %d records, %v", len(recs), err)
				}
			}
		})
	}
}

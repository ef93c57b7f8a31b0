package node_test

import (
	"fmt"
	"testing"

	"wbcast/internal/node"
	"wbcast/internal/wal"
)

// countingStore counts the Append and Sync calls a Step issues.
type countingStore struct {
	*wal.Memory
	appends, syncs int
}

func (s *countingStore) Append(entries ...wal.Entry) error {
	s.appends++
	return s.Memory.Append(entries...)
}

func (s *countingStore) Sync() error {
	s.syncs++
	return s.Memory.Sync()
}

// BenchmarkStepCommit measures the shard driver alone: a null handler that
// emits one persist entry per input, on the in-memory store, handed off,
// run and completed every 1, 8 or 64 inputs. One op is one input; appends/op
// and syncs/op are what group commit amortises (1/batch each).
func BenchmarkStepCommit(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			store := &countingStore{Memory: wal.NewMemory()}
			step := node.NewStep(node.Func{PID: 1, F: func(_ node.Input, fx *node.Effects) {
				fx.Persist(wal.Entry{Kind: wal.EntryBallot, Clock: 1})
			}}, store)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if _, err := step.Do(node.Start{}); err != nil {
					b.Fatal(err)
				}
				if i%batch == 0 || i == b.N {
					c := step.Handoff()
					c.Run()
					if _, err := step.Complete(c); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(store.appends)/float64(b.N), "appends/op")
			b.ReportMetric(float64(store.syncs)/float64(b.N), "syncs/op")
		})
	}
}

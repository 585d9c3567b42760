package campaign

import (
	"context"
	"fmt"
)

// Distributed range execution — the engine-side half of the fleet
// protocol (internal/campaign/dist). A remote worker leases one shard
// of a larger campaign: the exact [lo, hi) target range Run would have
// given that shard under the same Config. It executes the range with
// RunRange and a local checkpoint, producing a shard journal whose
// records carry GLOBAL target indices in the standard framing, and
// ships that file to the coordinator. The coordinator assembles every
// shipped journal (plus a manifest, see InitCheckpointDir) into one
// checkpoint directory, and Resume replays it exactly as if a single
// machine had run — and been killed right after — the whole campaign:
// the delivered sequence, and therefore any deterministic sink's
// output, is byte-identical to a local run's.

// ShardRange returns shard s's half-open global target range under
// Run's partitioning of total targets into shards contiguous pieces —
// the ranges a coordinator leases out must be exactly the ranges a
// single-machine Run would execute.
func ShardRange(total, shards, s int) (lo, hi int) {
	return s * total / shards, (s + 1) * total / shards
}

// EffectiveShards returns the shard count Run would use for a campaign
// of n targets under this Config — the partitioning a coordinator must
// mirror when leasing shard ranges to remote workers.
func (c Config) EffectiveShards(n int) int { return c.shards(n) }

// RunRange executes visit over the contiguous global target range
// [lo, hi) as shard `shard` of `shards`, delivering results — global
// Index order, calling goroutine — into sink exactly like Run does for
// that shard. With cfg.Checkpoint set, deliveries journal into
// shard-<shard>.cwj under the checkpoint directory (fresh: any stale
// journals in the directory are wiped first), so independent RunRange
// calls in separate directories produce journals that assemble into
// one resumable campaign. Stats covers just this range.
//
// The error semantics match Run: non-nil on cancellation or on a
// checkpoint setup/write failure, with Stats valid either way.
func RunRange[T, R any](ctx context.Context, cfg Config, targets []T, shard, shards, lo, hi int,
	visit func(context.Context, T) (R, error), sink func(Result[R])) (Stats, error) {

	if shard < 0 || shards <= shard {
		return Stats{}, fmt.Errorf("campaign: shard %d of %d out of range", shard, shards)
	}
	if lo < 0 || hi > len(targets) || lo > hi {
		return Stats{}, fmt.Errorf("campaign: range [%d,%d) out of bounds for %d targets", lo, hi, len(targets))
	}
	var ck *checkpointState
	if cfg.Checkpoint != nil {
		var err error
		// The manifest records the WHOLE campaign's identity (label,
		// global target count, targets hash), not the range's: the
		// journal is one piece of that campaign.
		if ck, err = prepareCheckpoint(cfg, len(targets), false); err != nil {
			return Stats{}, err
		}
	}
	stats := Stats{Targets: hi - lo}
	meter := &Meter{}
	stats.step(cfg, shard, shards, int64(hi-lo), meter, func() ShardStats {
		return runShard(ctx, cfg, targets, visit, sink, shard, shards, lo, hi, &stats, int64(hi-lo), meter, ck, nil)
	})
	return stats.finish(ctx, ck)
}

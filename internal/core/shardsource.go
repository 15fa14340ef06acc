package core

import "telcochurn/internal/features"

// BuildFrameSharded builds the window's wide table shard by shard with
// bounded peak memory: one shard's tables are resident at a time (per
// worker). The frame is bit-identical to BuildFrame's for any shard count
// and any worker count; see features.BuildShardedFrame for the contract. A
// source that serves whole months only builds as one whole-window shard.
func (p *Pipeline) BuildFrameSharded(src ShardedSource, win features.Window) (*features.Frame, features.ShardStats, error) {
	frame, stats, _, err := p.buildFrame(src, win, src.NumShards(), false, nil, false)
	return frame, stats, err
}

// BuildFrameShardedDegraded is BuildFrameDegraded shard by shard: a table
// unavailable in any shard is imputed around in that shard and degrades its
// groups for the whole frame.
func (p *Pipeline) BuildFrameShardedDegraded(src ShardedSource, win features.Window) (*features.Frame, features.ShardStats, features.Degradation, error) {
	return p.buildFrame(src, win, src.NumShards(), false, nil, true)
}

// PredictSharded scores every customer of the window through the
// shard-by-shard build.
func (p *Pipeline) PredictSharded(src ShardedSource, win features.Window) (*Predictions, features.ShardStats, error) {
	return p.predict(src, win, src.NumShards(), false)
}

// PredictShardedDegraded is PredictDegraded through the shard-by-shard
// build.
func (p *Pipeline) PredictShardedDegraded(src ShardedSource, win features.Window) (*Predictions, features.ShardStats, error) {
	return p.predict(src, win, src.NumShards(), true)
}

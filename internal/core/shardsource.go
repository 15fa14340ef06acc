package core

import (
	"fmt"

	"telcochurn/internal/features"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// BuildFrameSharded builds the window's wide table shard by shard with
// bounded peak memory. The frame is bit-identical for any shard count and
// any worker count; see features.BuildShardedFrame for the contract. F7-F9
// need a fitted pipeline (their feature models are trained by Fit on merged
// data); F1-F6 work on an unfitted NewFrameBuilder pipeline.
func (p *Pipeline) BuildFrameSharded(src ShardedSource, win features.Window) (*features.Frame, features.ShardStats, error) {
	days := src.DaysPerMonth()
	var groups []features.Group
	for _, g := range p.cfg.Groups {
		if g != features.F9SecondOrder {
			groups = append(groups, g)
		}
	}
	spec := features.ShardedBuildSpec{
		Shards:       src.NumShards(),
		Win:          win,
		DaysPerMonth: days,
		Workers:      p.cfg.Workers,
		Groups:       groups,
		Load: func(s int) (features.Tables, error) {
			return features.LoadTablesFrom(src.ShardReader(s), win, days)
		},
		LoadCustomers: func(s int) (*table.Table, error) {
			return src.ShardReader(s).ReadMonths(synth.TableCustomers, win.Months(days))
		},
	}
	wantGraph := p.cfg.hasGroup(features.F4CallGraph) ||
		p.cfg.hasGroup(features.F5MessageGraph) ||
		p.cfg.hasGroup(features.F6CooccurrenceGraph)
	if wantGraph {
		seedMonth := win.SnapshotMonth(days)
		truth, err := src.Truth(seedMonth)
		if err != nil {
			return nil, features.ShardStats{}, fmt.Errorf("core: graph features need truth of month %d: %w", seedMonth, err)
		}
		spec.GraphIn = features.GraphFeatureInput{
			PrevChurners: features.ChurnersOf(truth),
			StableSample: features.StableOf(truth, p.cfg.StableSeedStride),
		}
	}
	if p.cfg.hasGroup(features.F7ComplaintTopics) {
		if p.complaints == nil {
			return nil, features.ShardStats{}, fmt.Errorf("core: sharded build of F7 needs a fitted pipeline")
		}
		spec.Complaints = p.complaints
	}
	if p.cfg.hasGroup(features.F8SearchTopics) {
		if p.search == nil {
			return nil, features.ShardStats{}, fmt.Errorf("core: sharded build of F8 needs a fitted pipeline")
		}
		spec.Search = p.search
	}
	frame, stats, err := features.BuildShardedFrame(spec)
	if err != nil {
		return nil, stats, err
	}
	if p.cfg.hasGroup(features.F9SecondOrder) {
		if p.so == nil {
			return nil, stats, fmt.Errorf("core: sharded build of F9 needs a fitted pipeline")
		}
		if err := p.so.Apply(frame); err != nil {
			return nil, stats, err
		}
	}
	return frame, stats, nil
}

// PredictSharded scores every customer of the window through the
// out-of-core build.
func (p *Pipeline) PredictSharded(src ShardedSource, win features.Window) (*Predictions, features.ShardStats, error) {
	frame, stats, err := p.BuildFrameSharded(src, win)
	if err != nil {
		return nil, stats, err
	}
	return p.scoreFrame(frame, 0), stats, nil
}

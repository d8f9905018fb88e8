package cluster

import (
	"hash/fnv"
	"slices"
	"sort"

	"espsim/internal/serve"
	"espsim/internal/workload"
)

// Place picks the worker that owns key: the head of its rendezvous
// ranking. Every coordinator computes the same owner with no shared
// state, and removing one worker only moves the shards that worker
// owned — the rest of the fleet keeps its cache-hot assignments.
func Place(key string, workers []string) string {
	if len(workers) == 0 {
		return ""
	}
	return rank(key, workers)[0]
}

// rank orders workers by rendezvous (highest random weight) score for
// key, FNV-64a over "worker|key", ties by name. Keys are applications,
// so every configuration of one application lands on one node and
// reuses its materialized arena and pooled machines across the shard.
func rank(key string, workers []string) []string {
	scores := make(map[string]uint64, len(workers))
	for _, w := range workers {
		h := fnv.New64a()
		h.Write([]byte(w))
		h.Write([]byte{'|'})
		h.Write([]byte(key))
		scores[w] = h.Sum64()
	}
	out := slices.Clone(workers)
	sort.Slice(out, func(i, j int) bool {
		if si, sj := scores[out[i]], scores[out[j]]; si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// shardCost is the instructions app's shard materializes under req: the
// profile's event count at req's scale, capped by max_events, times its
// mean event length. It reads the profile rather than measured shard
// times, so every sweep of one grid gets the same owners and each
// application's arena stays on one worker.
func shardCost(app string, req serve.SweepRequest) (int64, error) {
	prof, err := workload.ByName(app)
	if err != nil {
		return 0, err
	}
	events := prof.Scale(req.Scale).Events
	if req.MaxEvents > 0 {
		events = min(events, req.MaxEvents)
	}
	return int64(events) * int64(prof.MeanEventLen), nil
}

// assign places every shard (app → cost) on a worker by rendezvous
// hashing with bounded loads, weighted by cost. Shards go heaviest
// first, ties by app name, each to the first worker in its
// rendezvous ranking whose load stays within the fleet mean with it
// added, else to the least-loaded worker, ties by rank. Plain
// rendezvous over a few unequal shards can leave one worker with most
// of the grid, so its peer spends the sweep stealing — and every steal
// materializes the stolen application's arena a second time. The
// result depends on neither the order of the shards nor the workers.
func assign(costs map[string]int64, workers []string) map[string]string {
	owner := make(map[string]string, len(costs))
	load := make(map[string]int64, len(workers))
	var total int64
	apps := make([]string, 0, len(costs))
	for app, cost := range costs {
		total += cost
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool {
		if ci, cj := costs[apps[i]], costs[apps[j]]; ci != cj {
			return ci > cj
		}
		return apps[i] < apps[j]
	})
	// load+cost <= total/n, kept in integers so no rounding decides.
	n := int64(len(workers))
	for _, app := range apps {
		ranking := rank(app, workers)
		best := ""
		for _, w := range ranking {
			if (load[w]+costs[app])*n <= total {
				best = w
				break
			}
		}
		if best == "" {
			best = ranking[0]
			for _, w := range ranking[1:] {
				if load[w] < load[best] {
					best = w
				}
			}
		}
		owner[app] = best
		load[best] += costs[app]
	}
	return owner
}

// Command vccrepro regenerates the tables and figures of the paper's
// evaluation from the simulation stack in this repository.
//
// Usage:
//
//	vccrepro -list                   # enumerate experiments
//	vccrepro -run fig7               # one experiment (quick mode)
//	vccrepro -run fig7 -mode full    # paper-scale configuration
//	vccrepro -run all -csv out/      # everything, also as CSV files
//	vccrepro -run all -workers 8     # fan experiments out over 8 workers
//	vccrepro -run shard-replay -shards 4  # concurrent sharded trace replay
//	vccrepro -run async-sweep             # sync Apply vs pipelined Submit/Wait
//	vccrepro -run workload-sweep -inflight 8  # drive a sweep through the async path
//	vccrepro -campaign list               # enumerate scenario campaigns
//	vccrepro -campaign fault-aging        # one long-horizon scenario campaign
//	vccrepro -campaign crash-recovery -horizon 2000 -lines 128  # reduced scale
//	vccrepro -campaign all -history BENCH_HISTORY.jsonl  # log summaries to the trajectory
//
// Experiment ids follow the paper's numbering (fig1..fig13, table1,
// table2) plus the ablations (ablate-*). Output tables carry notes
// stating the paper claim each experiment is expected to reproduce and
// any substitution involved (see DESIGN.md and EXPERIMENTS.md).
//
// -workers fans experiments out in parallel and means nothing else
// (each driver is independent and deterministic, so output is identical
// to a sequential run and is printed in id order; with -workers > 1
// tables are buffered until the batch completes). -shards parameterizes
// the sharded-replay drivers and the campaigns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/linecache"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		mode     = flag.String("mode", "quick", "quick or full")
		seed     = flag.Uint64("seed", 1, "master seed")
		csvDir   = flag.String("csv", "", "also write results as CSV files into this directory")
		shards   = flag.Int("shards", 1, "shard count for sharded-replay experiments")
		workers  = flag.Int("workers", 1, "experiments to run in parallel (output is identical at any value)")
		cacheLn  = flag.Int("cachelines", 0, "per-shard decoded-line cache capacity for experiments that honor it (workload-sweep); 0 = uncached")
		cachePl  = flag.String("cachepolicy", "wt", "cache write policy with -cachelines: writethrough|wt|writeback|wb")
		inFlight = flag.Int("inflight", 0, "issue op streams asynchronously with this many tickets in flight, for experiments that honor it (workload-sweep); 0 = synchronous Apply")
		camp     = flag.String("campaign", "", "scenario campaign to run ('list' enumerates; see internal/campaign)")
		lines    = flag.Int("lines", 0, "line capacity override for -campaign; 0 = scenario default")
		horizon  = flag.Int64("horizon", 0, "op-budget override for -campaign (reduced-horizon smoke runs); 0 = scenario default")
		history  = flag.String("history", "", "append -campaign summaries as JSON lines to this trajectory log (e.g. BENCH_HISTORY.jsonl)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-16s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *camp != "" {
		runCampaign(*camp, campaign.Params{
			Seed: *seed, Shards: *shards, Lines: *lines, Horizon: *horizon,
		}, *history)
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "vccrepro: nothing to do; use -list, -run <id> or -campaign <name>")
		flag.Usage()
		os.Exit(2)
	}

	var m experiments.Mode
	switch *mode {
	case "quick":
		m = experiments.Quick
	case "full":
		m = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "vccrepro: unknown mode %q (quick|full)\n", *mode)
		os.Exit(2)
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}
	if *workers < 1 {
		*workers = 1
	}
	policy, err := linecache.ParsePolicy(*cachePl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Opts{Mode: m, Seed: *seed, Shards: *shards,
		CacheLines: *cacheLn, CachePolicy: policy, InFlight: *inFlight}
	start := time.Now()
	emit := func(id string, res *experiments.Result) {
		fmt.Print(res.Table())
		fmt.Printf("(%s mode, seed %d)\n\n", m, *seed)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *workers == 1 {
		// Sequential: stream each table as it completes.
		for _, id := range ids {
			res, err := experiments.RunOpts(id, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
				os.Exit(1)
			}
			emit(id, res)
		}
	} else {
		results, err := experiments.RunMany(ids, opts, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
			os.Exit(1)
		}
		for i, id := range ids {
			emit(id, results[i])
		}
	}
	fmt.Printf("%d experiment(s) in %.1fs (%d worker(s))\n",
		len(ids), time.Since(start).Seconds(), *workers)
}

// runCampaign executes one scenario campaign (or lists them) and exits
// nonzero on an unknown name or a failed verification invariant, so CI
// smoke steps catch regressions without parsing the table. With a
// history path, each campaign's summary is appended as one JSON line to
// the same append-only trajectory log benchreport writes, so lifetime
// metrics are versioned alongside the timing results.
func runCampaign(name string, p campaign.Params, history string) {
	if name == "list" || name == "all" {
		for _, in := range campaign.List() {
			fmt.Printf("%-20s %s\n", in.Name, in.Title)
		}
		if name == "list" {
			return
		}
	}
	names := []string{name}
	if name == "all" {
		names = campaign.Names()
	}
	start := time.Now()
	for _, n := range names {
		res, err := campaign.Run(n, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(res.Table())
		fmt.Printf("(seed %d)\n\n", p.Seed)
		if v, ok := res.Summary["verify_violations"]; ok && v != 0 {
			fmt.Fprintf(os.Stderr, "vccrepro: campaign %s reported %g verification violations\n", n, v)
			os.Exit(1)
		}
		if history != "" {
			if err := appendCampaignHistory(history, n, p, res.Summary); err != nil {
				fmt.Fprintf(os.Stderr, "vccrepro: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("%d campaign(s) in %.1fs\n", len(names), time.Since(start).Seconds())
}

// campaignHistoryEntry is one JSON line in the trajectory log. The
// "kind" discriminator keeps these distinguishable from benchreport's
// timing entries when both land in the same BENCH_HISTORY.jsonl.
type campaignHistoryEntry struct {
	Kind     string             `json:"kind"`
	Time     string             `json:"time"`
	GitSHA   string             `json:"git_sha"`
	Campaign string             `json:"campaign"`
	Seed     uint64             `json:"seed"`
	Horizon  int64              `json:"horizon,omitempty"`
	Lines    int                `json:"lines,omitempty"`
	Summary  map[string]float64 `json:"summary"`
}

// appendCampaignHistory appends one summary line; the log is
// append-only by contract — existing lines are never rewritten.
func appendCampaignHistory(path, name string, p campaign.Params, summary map[string]float64) error {
	line, err := json.Marshal(campaignHistoryEntry{
		Kind: "campaign", Time: time.Now().UTC().Format(time.RFC3339),
		GitSHA: gitSHA(), Campaign: name,
		Seed: p.Seed, Horizon: p.Horizon, Lines: p.Lines,
		Summary: summary,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitSHA best-effort resolves HEAD, with a "-dirty" suffix for
// uncommitted trees; history entries record "unknown" outside a git
// checkout rather than failing the run.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

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
//	vccrepro -campaign list               # enumerate scenario campaigns
//	vccrepro -campaign fault-aging        # one long-horizon scenario campaign
//	vccrepro -campaign crash-recovery -horizon 2000 -lines 128  # reduced scale
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
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/linecache"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		run     = flag.String("run", "", "experiment id to run, or 'all'")
		mode    = flag.String("mode", "quick", "quick or full")
		seed    = flag.Uint64("seed", 1, "master seed")
		csvDir  = flag.String("csv", "", "also write results as CSV files into this directory")
		shards  = flag.Int("shards", 1, "shard count for sharded-replay experiments")
		workers = flag.Int("workers", 1, "experiments to run in parallel (output is identical at any value)")
		cacheLn = flag.Int("cachelines", 0, "per-shard decoded-line cache capacity for experiments that honor it (workload-sweep); 0 = uncached")
		cachePl = flag.String("cachepolicy", "wt", "cache write policy with -cachelines: writethrough|wt|writeback|wb")
		camp    = flag.String("campaign", "", "scenario campaign to run ('list' enumerates; see internal/campaign)")
		lines   = flag.Int("lines", 0, "line capacity override for -campaign; 0 = scenario default")
		horizon = flag.Int64("horizon", 0, "op-budget override for -campaign (reduced-horizon smoke runs); 0 = scenario default")
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
		})
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
		CacheLines: *cacheLn, CachePolicy: policy}
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
}

// runCampaign executes one scenario campaign (or lists them) and exits
// nonzero on an unknown name or a failed verification invariant, so CI
// smoke steps catch regressions without parsing the table.
func runCampaign(name string, p campaign.Params) {
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
	}
}

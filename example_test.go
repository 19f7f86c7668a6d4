package reform_test

import (
	"fmt"
	"runtime"

	reform "repro"
)

// Example demonstrates the core loop of the paper: peers start
// unclustered, selfish reformulation discovers the category structure,
// and the result is a pure Nash equilibrium.
func Example() {
	sys := reform.New(reform.Options{
		Peers:            40,
		Categories:       4,
		Scenario:         reform.SameCategory,
		Strategy:         reform.Selfish,
		Init:             reform.InitSingletons,
		AllowNewClusters: true,
		Seed:             1,
	})
	report := sys.Run()
	fmt.Println("converged:", report.Converged)
	fmt.Println("clusters:", sys.NumClusters())
	fmt.Println("nash:", sys.IsNashEquilibrium(0.001))
	// Output:
	// converged: true
	// clusters: 4
	// nash: true
}

// Example_filesharing runs a Gnutella-style sharing network under
// churn. Every maintenance period a slice of the population leaves and
// is replaced by newcomers with fresh libraries and interests; periodic
// selfish reformulation (§3.2) keeps the clustered overlay's recall
// from decaying, the paper's core maintenance claim.
func Example_filesharing() {
	sys := reform.New(reform.Options{
		Scenario:            reform.SameCategory,
		Strategy:            reform.Selfish,
		StartFromCategories: true, // begin from a good clustering
		AllowNewClusters:    true,
		Seed:                42,
	})
	fmt.Printf("steady state: %d clusters, social cost %.3f\n\n", sys.NumClusters(), sys.SocialCost())
	fmt.Println("period  churned  cost-before  cost-after  rounds  clusters")

	n := sys.NumPeers()
	churnPerPeriod := n / 20 // 5% of the population per period
	next := 0
	for period := 1; period <= 8; period++ {
		// Newcomers take over the slots of leavers; their libraries and
		// interests land in a rotating category.
		for i := 0; i < churnPerPeriod; i++ {
			slot := (period*31 + i*7) % n
			sys.ChurnPeer(slot, next)
			next = (next + 1) % 10
		}
		before := sys.SocialCost()
		report := sys.Run()
		fmt.Printf("%6d  %7d  %11.3f  %10.3f  %6d  %8d\n",
			period, churnPerPeriod, before, sys.SocialCost(),
			report.EffectiveRounds(), sys.NumClusters())
	}
	fmt.Println("\nthe overlay keeps absorbing churn without re-clustering from scratch")
	// Output:
	// steady state: 10 clusters, social cost 0.100
	//
	// period  churned  cost-before  cost-after  rounds  clusters
	//      1       10        0.176       0.100       2        10
	//      2       10        0.159       0.100       2        10
	//      3       10        0.168       0.100       2        10
	//      4       10        0.167       0.100       2        10
	//      5       10        0.181       0.100       2        10
	//      6       10        0.161       0.100       2        10
	//      7       10        0.176       0.100       3        10
	//      8       10        0.179       0.100       3        10
	//
	// the overlay keeps absorbing churn without re-clustering from scratch
}

// Example_longhaul runs a live system under permanent session churn
// whose newcomers keep introducing never-before-seen queries. Distinct
// queries intern engine rows forever, so without intervention memory
// grows with query history; in-place workload compaction
// (CompactWorkload) reclaims the rows of dead queries whenever they
// outnumber the live ones, keeping the footprint proportional to live
// demand while preserving every cost exactly. Each wave also shows
// dynamic membership: newcomers join and leave through the incremental
// cost-engine path, and reformulation restores the settled cost.
func Example_longhaul() {
	sys := reform.New(reform.Options{
		Peers:               60,
		Categories:          6,
		StartFromCategories: true,
		AllowNewClusters:    true,
		Seed:                7,
	})
	sys.Run()
	fmt.Printf("settled: %d peers, %d clusters, %d distinct queries, scost %.4f\n",
		sys.NumPeers(), sys.NumClusters(), sys.NumDistinctQueries(), sys.SocialCost())

	peak := sys.NumDistinctQueries()
	reclaimed, compactions := 0, 0
	for epoch := 1; epoch <= 8; epoch++ {
		// A wave of sessions: newcomers join (fresh documents, fresh
		// interests — novel query words intern new QIDs), reformulation
		// integrates them, then the wave departs and strands its QIDs.
		var wave []int
		for i := 0; i < 12; i++ {
			wave = append(wave, sys.Join(i%6))
		}
		sys.Run()
		for _, pid := range wave {
			sys.Leave(pid)
		}
		sys.Run()
		if q := sys.NumDistinctQueries(); q > peak {
			peak = q
		}
		// The serve daemon's policy: compact when dead QIDs outnumber
		// live ones. Costs are untouched — compaction is invisible.
		if 2*sys.DeadQueries() > sys.NumDistinctQueries() {
			before := sys.SocialCost()
			reclaimed += sys.CompactWorkload()
			compactions++
			if sys.SocialCost() != before {
				panic("compaction changed a cost")
			}
		}
		fmt.Printf("epoch %d: %d distinct queries live (%d dead), peak %d, scost %.4f\n",
			epoch, sys.NumDistinctQueries(), sys.DeadQueries(), peak, sys.SocialCost())
	}
	fmt.Printf("compacted %d times, reclaimed %d query rows; footprint bounded at %d (peak %d)\n",
		compactions, reclaimed, sys.NumDistinctQueries(), peak)
	// Output:
	// settled: 60 peers, 6 clusters, 171 distinct queries, scost 0.1667
	// epoch 1: 203 distinct queries live (32 dead), peak 203, scost 0.1667
	// epoch 2: 239 distinct queries live (68 dead), peak 239, scost 0.1667
	// epoch 3: 270 distinct queries live (99 dead), peak 270, scost 0.1667
	// epoch 4: 301 distinct queries live (130 dead), peak 301, scost 0.1667
	// epoch 5: 333 distinct queries live (162 dead), peak 333, scost 0.1667
	// epoch 6: 171 distinct queries live (0 dead), peak 365, scost 0.1667
	// epoch 7: 203 distinct queries live (32 dead), peak 365, scost 0.1667
	// epoch 8: 237 distinct queries live (66 dead), peak 365, scost 0.1667
	// compacted 1 times, reclaimed 194 query rows; footprint bounded at 237 (peak 365)
}

// Example_lowlatency keeps maintenance off the mutation critical path:
// instead of blocking every join behind a full reformulation period (up
// to MaxRounds rounds of cluster scans), the system steps the period
// with a small work budget and admits peers between steps. Each join
// waits for at most one step, and the finished period is byte-identical
// to a blocking Run when nothing interleaves.
func Example_lowlatency() {
	sys := reform.New(reform.Options{
		Peers:            80,
		Categories:       8,
		Init:             reform.InitSingletons,
		AllowNewClusters: true,
		// Phase-1 decide scans fan out over all cores; the outcome is
		// byte-identical to serial, just faster.
		Workers: runtime.GOMAXPROCS(0),
		Seed:    7,
	})
	fmt.Printf("start:   %d peers, %d clusters, social cost %.4f\n",
		sys.NumPeers(), sys.NumClusters(), sys.SocialCost())

	// Maintain with 8 work units per step; a stream of joiners lands
	// between steps — none of them waits for the period to finish.
	const budget = 8
	steps, joins := 0, 0
	for {
		done, rpt := sys.StepReform(budget)
		if done {
			fmt.Printf("period:  %d rounds in %d bounded steps, %d mid-period joins, social cost %.4f\n",
				rpt.RoundsRun, steps, joins, rpt.FinalSCost)
			break
		}
		steps++
		if steps%5 == 0 && joins < 10 {
			sys.Join(joins % 8) // admitted mid-period, integrated next rounds
			joins++
		}
	}

	// Follow-up periods absorb the mid-period joiners to convergence.
	for {
		done, rpt := sys.StepReform(budget)
		if done && rpt.Converged {
			fmt.Printf("settled: %d peers, %d clusters, social cost %.4f\n",
				sys.NumPeers(), sys.NumClusters(), sys.SocialCost())
			break
		}
	}
	// Output:
	// start:   80 peers, 80 clusters, social cost 0.9191
	// period:  7 rounds in 48 bounded steps, 9 mid-period joins, social cost 0.1251
	// settled: 89 peers, 8 clusters, social cost 0.1251
}

// Example_newsflash shifts part of the population's interests at once,
// as a breaking topic does (§4.2's workload update, plus §3.2's
// new-cluster rule). Selfish peers whose recall collapsed chase the
// data; peers with drifted interests that no existing cluster serves
// found a new cluster.
func Example_newsflash() {
	sys := reform.New(reform.Options{
		Scenario:            reform.SameCategory,
		Strategy:            reform.Selfish,
		StartFromCategories: true,
		AllowNewClusters:    true,
		Seed:                7,
	})
	initial := sys.SocialCost()
	fmt.Printf("steady state: %d clusters, social cost %.3f\n", sys.NumClusters(), initial)

	// The flash: a quarter of category-0's readers suddenly care only
	// about category 5's story.
	affected := 0
	for p := 0; p < sys.NumPeers() && affected < 5; p++ {
		if sys.DataCategory(p) == 0 {
			sys.RedirectInterest(p, 5, 1.0)
			affected++
		}
	}
	fmt.Printf("\n%d peers redirected their whole interest to category 5\n", affected)
	fmt.Printf("cost after the flash, before maintenance: %.3f\n", sys.SocialCost())

	report := sys.Run()
	moves := 0
	for _, r := range report.Rounds {
		moves += r.Granted
	}
	fmt.Printf("maintenance: %d rounds, %d relocations\n", report.EffectiveRounds(), moves)
	fmt.Printf("cost after maintenance: %.3f (initial %.3f is not recovered exactly —\n", sys.SocialCost(), initial)
	fmt.Println("grown clusters cost more to participate in, as §4.2 observes)")
	fmt.Printf("clusters now: %v\n", sys.ClusterSizes())
	// Output:
	// steady state: 10 clusters, social cost 0.100
	//
	// 5 peers redirected their whole interest to category 5
	// cost after the flash, before maintenance: 0.125
	// maintenance: 20 rounds, 20 relocations
	// cost after maintenance: 0.120 (initial 0.100 is not recovered exactly —
	// grown clusters cost more to participate in, as §4.2 observes)
	// clusters now: [20 20 20 20 20 20 20 20 40]
}

package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ping/internal/gmark"
	"ping/internal/rdf"
)

// spec describes one workload: its data, its query family, how the load
// generator drives pingd, and the preconditions that make its numbers
// mean what the README says they mean.
type spec struct {
	name    string
	dataset string
	// scale is the gmark scale factor at -scale 1.
	scale float64
	// family enumerates the workload's query templates from the schema.
	// The family is the same for every seed: the seed generates the data,
	// the replay order, the arrival schedule and the budget assignment. A
	// seeded sample of a large template space would put sampling variance
	// of 10-20 % on every latency percentile, which is more than the
	// regression bounds; a fixed family leaves only data and machine noise.
	family func(s gmark.Schema) []string
	// writer POSTs held-out batches to /update beside the readers.
	writer bool
	// clients is the number of closed-loop connections; 0 selects the
	// open loop at rate requests per second.
	clients int
	rate    float64
	// budgetShare of the templates are asked with max_steps=2 and resumed
	// until done. Which ones is fixed by the family's order, not by the
	// seed: drawing them per lineage made the seed decide whether the
	// long or the short queries paid the round trips, and moved every
	// latency percentile by 10-20 %.
	budgetShare float64
	pre         preconditions
}

// preconditions are what a run must have done for its numbers to mean
// what the README says they mean; a run that misses one fails instead of
// reporting. A zero field is not required.
type preconditions struct {
	// maxTouched and minTouched bound the distinct sub-partitions the mix
	// touches, against the 64 entries of pingd's decoded sub-partition LRU.
	maxTouched, minTouched int
	// minHitRatio is the cache hit ratio of the measured section.
	minHitRatio float64
	// minMedianSteps is the median number of slice steps per lineage.
	minMedianSteps int
	// minEpochsPerSecond of published epochs (capped at 20 in all), and no
	// rejected batch.
	minEpochsPerSecond float64
	// minResumedShare of the lineages paused and resumed at least once.
	minResumedShare float64
	// maxGenLagMS is how late the open-loop generator may dispatch at p90.
	maxGenLagMS float64
}

func (p preconditions) check(r *result) error {
	switch {
	case p.maxTouched > 0 && r.touched > p.maxTouched:
		return fmt.Errorf("the mix touches %d sub-partitions, more than the %d the cache holds", r.touched, p.maxTouched)
	case r.touched < p.minTouched:
		return fmt.Errorf("the mix touches %d sub-partitions, want at least %d so the cache cannot hold them", r.touched, p.minTouched)
	case r.hitRatio < p.minHitRatio:
		return fmt.Errorf("cache hit ratio %.3f after warm-up, want >= %.2f", r.hitRatio, p.minHitRatio)
	case r.medianSteps < p.minMedianSteps:
		return fmt.Errorf("median steps %d, want >= %d", r.medianSteps, p.minMedianSteps)
	case float64(r.epochs) < min(20, p.minEpochsPerSecond*r.section):
		return fmt.Errorf("%d epochs published in %g s, want >= %g", r.epochs, r.section, min(20, p.minEpochsPerSecond*r.section))
	case p.minEpochsPerSecond > 0 && r.updatesRejected > 0:
		return fmt.Errorf("%d update batches rejected", r.updatesRejected)
	case r.resumedShare < p.minResumedShare:
		return fmt.Errorf("%.0f %% of lineages resumed, want >= %.0f %%", 100*r.resumedShare, 100*p.minResumedShare)
	case p.maxGenLagMS > 0 && r.genLagP90 > p.maxGenLagMS:
		return fmt.Errorf("load generator ran %.2f ms late at p90, want <= %g ms", r.genLagP90, p.maxGenLagMS)
	}
	return nil
}

const (
	updateBatchTriples = 200
	updateEvery        = 500e6 // ns between scheduled /update posts
	heldOutShare       = 0.1
	lateLimitMS        = 500.0
	// The decoded sub-partition LRU of a shipped pingd holds this many
	// entries (hpart.DefaultSubPartCacheSize); star-warm must fit it and
	// deep-miss must not.
	cacheEntries = 64
)

func specs() []spec {
	return []spec{
		{
			name: "star-warm", dataset: "shop", scale: 10, family: shopFamily, clients: 2,
			pre: preconditions{maxTouched: cacheEntries, minHitRatio: 0.95},
		},
		{
			name: "deep-miss", dataset: "dbpedia", scale: 20, family: dbpediaFamily, clients: 2,
			pre: preconditions{minTouched: cacheEntries + 1, minMedianSteps: 5},
		},
		{
			// One batch is due every 500 ms; two thirds of them must land. A
			// batch keeps the writer busy for a quarter of that period. At one
			// every 250 ms it was busy for half of it, half of the lineages ran
			// beside an update (1.5 times slower) and half did not, so the
			// median sat on the edge between the two and jumped with the
			// machine's speed.
			name: "update-mix", dataset: "social", scale: 4, family: socialFamily, clients: 1, writer: true,
			pre: preconditions{minEpochsPerSecond: 4.0 / 3},
		},
		{
			// 14/s keeps the two connections a quarter of an erlang busy: one
			// arrival in thirty finds both taken, one in fifteen on a host
			// running 1.5 times slower, so p90 stays a service time. At 0.8
			// erlang (x4 at 30/s) one in four waited, p90 was a waiting time,
			// and a host 1.3 times slower made it 2.5 times longer.
			name: "open-budget", dataset: "social", scale: 2, family: socialFamily, rate: 14, budgetShare: 0.3,
			pre: preconditions{minResumedShare: 0.25, maxGenLagMS: 5},
		},
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// arm is one triple pattern of a star: a property of a class with the
// object term the pattern uses (a variable, or the class IRI for
// rdf:type). depth is the chain depth an instance needs to carry the
// property: 0 for required properties, i+1 for Chain[i].
type arm struct {
	iri, obj string
	depth    int
	target   string // target class, if the property points at instances
	// hot lists the property's most referenced objects, hottest first,
	// when gmark draws them from a named list or an opaque pool (it skews
	// every draw towards the head of the list, under every seed).
	hot []string
}

// hotObjects names the head of a property's object pool the way
// gmark's generator does.
func hotObjects(s gmark.Schema, p gmark.Property) []string {
	var hot []string
	for r := 0; r < 3; r++ {
		switch {
		case r < len(p.Target.Named):
			hot = append(hot, "<"+s.IRI(p.Target.Named[r])+">")
		case p.Target.Pool > r:
			hot = append(hot, "<"+s.IRI(fmt.Sprintf("%s/e%d", p.Name, r))+">")
		}
	}
	return hot
}

func classArms(s gmark.Schema, c gmark.Class) []arm {
	var arms []arm
	if c.AddType {
		arms = append(arms, arm{iri: rdf.RDFType, obj: "<" + s.IRI(c.Name) + ">"})
	}
	for _, p := range c.Required {
		arms = append(arms, arm{iri: s.PropertyIRI(p.Name), target: p.Target.Class, hot: hotObjects(s, p)})
	}
	for i, p := range c.Chain {
		arms = append(arms, arm{iri: s.PropertyIRI(p.Name), depth: i + 1, target: p.Target.Class, hot: hotObjects(s, p)})
	}
	return arms
}

// subsets lists the k-subsets of 0..n-1 in lexicographic order.
func subsets(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	var rec func(start, at int)
	rec = func(start, at int) {
		if at == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i <= n-(k-at); i++ {
			idx[at] = i
			rec(i+1, at+1)
		}
	}
	rec(0, 0)
	return out
}

// pattern writes one triple pattern; an arm without a fixed object gets
// the variable obj.
func pattern(b *strings.Builder, subj string, a arm, obj string) {
	if a.obj != "" {
		obj = a.obj
	}
	fmt.Fprintf(b, "  %s <%s> %s .\n", subj, a.iri, obj)
}

func star(arms []arm) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE {\n")
	for i, a := range arms {
		pattern(&b, "?x", a, fmt.Sprintf("?o%d", i))
	}
	b.WriteString("}")
	return b.String()
}

// stars enumerates the k-arm stars of the class. shape, if not nil, sees
// each candidate's arms, may pin their objects, and drops the candidate
// by returning false.
func stars(s gmark.Schema, class string, k int, shape func([]arm) bool) []string {
	c := s.ClassByName(class)
	arms := classArms(s, *c)
	var out []string
	for _, idx := range subsets(len(arms), k) {
		pick := make([]arm, k)
		for i, j := range idx {
			pick[i] = arms[j]
		}
		if shape == nil || shape(pick) {
			out = append(out, star(pick))
		}
	}
	return out
}

// snowflakes enumerates stars of two arms on class whose first arm
// bridges to another instance carrying a two-arm star of its own.
func snowflakes(s gmark.Schema, class string) []string {
	c := s.ClassByName(class)
	arms := classArms(s, *c)
	var out []string
	for _, bridge := range arms {
		if bridge.target == "" || bridge.target == class {
			continue
		}
		inner := classArms(s, *s.ClassByName(bridge.target))
		for _, idx := range subsets(len(inner), 2) {
			var b strings.Builder
			b.WriteString("SELECT * WHERE {\n")
			pattern(&b, "?x", bridge, "?y")
			pattern(&b, "?x", arms[0], "?s")
			pattern(&b, "?y", inner[idx[0]], "?a")
			pattern(&b, "?y", inner[idx[1]], "?b")
			b.WriteString("}")
			out = append(out, b.String())
		}
	}
	return out
}

// chains enumerates the walks of hops instance-to-instance properties
// starting at class.
func chains(s gmark.Schema, class string, hops int) []string {
	var out []string
	var walk func(class string, path []arm)
	walk = func(class string, path []arm) {
		if len(path) == hops {
			var b strings.Builder
			b.WriteString("SELECT * WHERE {\n")
			for i, a := range path {
				pattern(&b, fmt.Sprintf("?v%d", i), a, fmt.Sprintf("?v%d", i+1))
			}
			b.WriteString("}")
			out = append(out, b.String())
			return
		}
		for _, a := range classArms(s, *s.ClassByName(class)) {
			if a.target != "" {
				walk(a.target, append(path[:len(path):len(path)], a))
			}
		}
	}
	walk(class, nil)
	return out
}

func maxDepth(arms []arm) int {
	d := 0
	for _, a := range arms {
		d = max(d, a.depth)
	}
	return d
}

// every keeps each n-th element, which thins an enumeration without
// making the selection depend on the seed.
func every(n int, qs []string) []string {
	var out []string
	for i := 0; i < len(qs); i += n {
		out = append(out, qs[i])
	}
	return out
}

// shopFamily: stars of three and four arms on every class, and
// snowflakes from users to the products and reviews they point at. All
// of shop is 41 sub-partitions, so the family fits the cache whatever it
// touches, and the multi-valued purchases arm gives the joins fan-out.
func shopFamily(s gmark.Schema) []string {
	var qs []string
	for _, c := range []string{"User", "Product", "Review"} {
		qs = append(qs, stars(s, c, 3, nil)...)
		qs = append(qs, stars(s, c, 4, nil)...)
	}
	return append(qs, snowflakes(s, "User")...)
}

// dbpediaFamily: two-arm stars on the two long chains whose arms both
// pin their object to a constant, the deeper arm leaving at least five
// hierarchy levels to visit. Each step has to read, decode and pack the
// arms' sub-partitions of one more level, which the 64-entry cache has
// dropped again by the time the mix comes back to them, and then keeps a
// few rows in a hundred: loading is the work and the joins are small.
// The shallower arm takes its property's second most referenced object
// and the deeper one its most referenced, so that answers remain.
func dbpediaFamily(s gmark.Schema) []string {
	var qs []string
	for _, c := range []string{"Misc", "Company"} {
		chain := len(s.ClassByName(c).Chain)
		qs = append(qs, stars(s, c, 2, func(arms []arm) bool {
			if len(arms[0].hot) < 2 || len(arms[1].hot) < 1 || chain+1-arms[1].depth < 5 {
				return false
			}
			arms[0].obj, arms[1].obj = arms[0].hot[1], arms[1].hot[0]
			return true
		})...)
	}
	return qs
}

// socialFamily: the mixed read traffic of update-mix and open-budget —
// person stars over the ten-level chain, post stars, snowflakes and
// two-hop chains, most of them three to nine steps long.
func socialFamily(s gmark.Schema) []string {
	var qs []string
	qs = append(qs, every(2, stars(s, "Person", 3, func(arms []arm) bool { return maxDepth(arms) <= 8 }))...)
	qs = append(qs, every(2, snowflakes(s, "Person"))...)
	qs = append(qs, chains(s, "Person", 2)...)
	return qs
}

// budgetedTemplates marks the share of the family that runs under a
// budget: the templates whose index crosses a multiple of 1/share, which
// spreads them evenly over the enumeration.
func budgetedTemplates(qs []string, share float64) map[string]bool {
	out := make(map[string]bool)
	for i, q := range qs {
		if int(float64(i+1)*share) > int(float64(i)*share) {
			out[q] = true
		}
	}
	return out
}

// shuffled returns the family in the seed's replay order.
func shuffled(qs []string, seed int64) []string {
	out := append([]string(nil), qs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

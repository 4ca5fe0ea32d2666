// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7) over the synthetic datasets:
//
//	Table 1  — recall of the generated schema on a held-out test set
//	Table 2  — schema entropy (log2 admitted types)
//	Table 3  — entity-detection accuracy vs. ground truth (sym. difference)
//	Table 4  — entity-count conciseness (Bimax-Naive vs. Bimax-Merge)
//	Table 5  — extraction runtime
//	Figure 4 — key-space entropy distribution across paths
//	Figure 5 — feature-vector memory (pruning and encoding)
//	§7.5     — schema edits to full recall
//	ablations — threshold sensitivity, staged vs. recursive execution,
//	            iterative sampling, sampled pass-① detection
//	extensions — structural FD mining, schema description statistics
//
// Each runner is deterministic for a given Options.Seed and returns a
// result value with Render (ASCII table) and CSV methods, shared by
// cmd/jxbench and the bench_test.go harness. Performance is not measured
// here: the bench/ module runs the CLIs end to end and layer by layer.
package experiments

import (
	"fmt"
	"math/rand"

	"jxplain/internal/core"
	"jxplain/internal/dataset"
	"jxplain/internal/jsontype"
	"jxplain/internal/merge"
	"jxplain/internal/schema"
)

// Algorithm names one of the four compared extractors.
type Algorithm string

// The four extractors of the evaluation.
const (
	KReduce    Algorithm = "k-reduce"
	BimaxMerge Algorithm = "bimax-merge"
	BimaxNaive Algorithm = "bimax-naive"
	LReduce    Algorithm = "l-reduce"
)

// Algorithms is the comparison order of the paper's tables.
var Algorithms = []Algorithm{KReduce, BimaxMerge, BimaxNaive, LReduce}

// Discover runs the named extractor over the training types.
// K-reduce runs as the distributed fold (its selling point); the JXPLAIN
// variants run as the staged pipeline (Figure 3); L-reduce is the naive
// set-of-types baseline. Outputs are simplified (the union-redundancy
// post-processing applied to all systems in §7).
func Discover(alg Algorithm, types []*jsontype.Type) schema.Schema {
	switch alg {
	case KReduce:
		return schema.Simplify(merge.FoldK(types, 0))
	case LReduce:
		bag := &jsontype.Bag{}
		for _, t := range types {
			bag.Add(t)
		}
		return schema.Simplify(merge.Naive(bag))
	case BimaxNaive:
		return schema.Simplify(core.PipelineTypes(types, core.BimaxNaiveConfig()))
	case BimaxMerge:
		return schema.Simplify(core.PipelineTypes(types, core.Default()))
	}
	panic("experiments: unknown algorithm " + string(alg))
}

// Options configures an experiment run.
type Options struct {
	// Datasets restricts the run (nil = the full registry).
	Datasets []string
	// Fractions are the training fractions (default 1%, 10%, 50%, 90%).
	Fractions []float64
	// Trials is the number of repetitions (default 5, as in the paper).
	Trials int
	// Scale multiplies each dataset's DefaultN (default 1).
	Scale float64
	// Seed drives sampling and generation.
	Seed int64
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if len(o.Fractions) == 0 {
		o.Fractions = []float64{0.01, 0.10, 0.50, 0.90}
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Datasets) == 0 {
		o.Datasets = dataset.Names()
	}
	return o
}

// generators resolves the configured dataset names.
func (o Options) generators() ([]*dataset.Generator, error) {
	var out []*dataset.Generator
	for _, name := range o.Datasets {
		g, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown dataset %q", name)
		}
		out = append(out, g)
	}
	return out, nil
}

// split draws one trial's train/test split: 10% of the records are held
// out for testing; the training set is a uniform `fraction` sample of the
// data (as in §7: fractions are of the whole dataset, sampled from the
// non-test remainder).
func split(records []dataset.Record, fraction float64, seed int64) (train, test []dataset.Record) {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(records))
	nTest := len(records) / 10
	nTrain := int(fraction * float64(len(records)))
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain > len(records)-nTest {
		nTrain = len(records) - nTest
	}
	test = make([]dataset.Record, 0, nTest)
	train = make([]dataset.Record, 0, nTrain)
	for _, idx := range perm[:nTest] {
		test = append(test, records[idx])
	}
	for _, idx := range perm[nTest : nTest+nTrain] {
		train = append(train, records[idx])
	}
	return train, test
}

// scaledN returns the record count for a generator under the options.
func (o Options) scaledN(g *dataset.Generator) int {
	n := int(float64(g.DefaultN) * o.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

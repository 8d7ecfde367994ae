package sieve

import (
	"context"

	"github.com/gpusampling/sieve/internal/pks"
)

// PKSPolicy selects the representative invocation within a PKS cluster.
type PKSPolicy = pks.Policy

// PKS representative-selection policies. The original proposal uses
// first-chronological; random and centroid are the alternates evaluated in
// the paper's Fig. 5.
const (
	PKSSelectFirst    = pks.SelectFirst
	PKSSelectRandom   = pks.SelectRandom
	PKSSelectCentroid = pks.SelectCentroid
)

// PKSClusteringAlgo selects the baseline's clustering engine.
type PKSClusteringAlgo = pks.ClusteringAlgo

// Clustering engines: PKS's k-means (default) and TBPoint-style
// agglomerative hierarchical clustering from the paper's related work.
const (
	PKSAlgoKMeans       = pks.AlgoKMeans
	PKSAlgoHierarchical = pks.AlgoHierarchical
)

// PKSOptions configures the PKS baseline. The k = 1..MaxK sweep runs across
// GOMAXPROCS workers by default when its estimated cost reaches 32 Mi
// point-coordinate operations; Parallelism is the one scheduling setting,
// and 1 forces sequential execution. Results are byte-identical either way.
// Each candidate k gets one k-means++ fit, as in the original PKS.
type PKSOptions = pks.Options

// PKSPlan is a complete PKS selection: the clusters, their
// representatives and the k-sweep's distortion. It carries no estimator: to
// predict, plan with SampleMethod("pks", …), whose Plan has the PKS
// estimator behind Predict and Speedup.
type PKSPlan = pks.Result

// PKSSelect runs the Principal Kernel Selection baseline: standardize the
// 12-characteristic feature rows, reduce with PCA, cluster with k-means
// (k chosen 1..20 by minimizing per-invocation distortion against the golden
// cycle counts — the real-hardware dependency the paper criticizes), and
// select one representative per cluster.
func PKSSelect(features [][]float64, goldenCycles []float64, opts PKSOptions) (*PKSPlan, error) {
	return PKSSelectContext(context.Background(), features, goldenCycles, opts)
}

// PKSSelectContext is PKSSelect with cancellation: the k = 1..MaxK sweep
// observes ctx between candidate clusterings, so a cancelled or timed-out
// caller gets ctx.Err() back and releases the sweep workers.
func PKSSelectContext(ctx context.Context, features [][]float64, goldenCycles []float64, opts PKSOptions) (*PKSPlan, error) {
	return pks.SelectContext(ctx, features, goldenCycles, opts)
}

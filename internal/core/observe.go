package core

import (
	"repro/internal/costmodel"
	"repro/internal/metrics"
)

// JITS instruments on the process-wide default registry, resolved once at
// package init.
var (
	mSampleRows = metrics.Default().Counter(
		"jits_sample_rows_total",
		"Rows drawn by JITS compile-time sampling.")
	mTablesCollected = metrics.Default().Counter(
		"jits_tables_collected_total",
		"Tables successfully sampled by JITS Prepare.")
	// Every cause's series is exposed from the start, at zero; its label is
	// the cause's own name, so the exposition and DegradationCounts agree.
	mDegradation = func() *metrics.CounterVec {
		vec := metrics.Default().CounterVec(
			"jits_degradation_total",
			"Tables that fell back to catalog statistics, by cause.",
			"cause")
		for _, cause := range costmodel.DegradeCauses() {
			vec.With(cause.String())
		}
		return vec
	}()
	mSampleMemShrinks = metrics.Default().Counter(
		"jits_sampling_mem_shrinks_total",
		"Sampling passes that shrank their sample to fit the memory budget.")
	mArchiveHits = metrics.Default().Counter(
		"qss_archive_hits_total",
		"QSS archive selectivity lookups answered from archived statistics.")
	mArchiveMisses = metrics.Default().Counter(
		"qss_archive_misses_total",
		"QSS archive selectivity lookups that found no usable statistics.")
	mErrorFactor = metrics.Default().Histogram(
		"feedback_error_factor",
		"Estimated/actual selectivity error factors observed by the feedback loop.",
		metrics.ErrorFactorBuckets())
)

// Package analyzers registers the jxlint analyzer suite.
package analyzers

import (
	"jxplain/internal/lint/analyzers/decodebound"
	"jxplain/internal/lint/analyzers/detorder"
	"jxplain/internal/lint/analyzers/hotpathalloc"
	"jxplain/internal/lint/analyzers/hotpathcall"
	"jxplain/internal/lint/analyzers/ignoreaudit"
	"jxplain/internal/lint/analyzers/interncheck"
	"jxplain/internal/lint/analyzers/mergepure"
	"jxplain/internal/lint/jxanalysis"
)

// All returns the full jxlint suite in a stable order.
func All() []*jxanalysis.Analyzer {
	return []*jxanalysis.Analyzer{
		interncheck.Analyzer,
		hotpathalloc.Analyzer,
		hotpathcall.Analyzer,
		detorder.Analyzer,
		mergepure.Analyzer,
		decodebound.Analyzer,
		ignoreaudit.Analyzer,
	}
}

package stdchecks_test

import (
	"testing"

	"bluefi/internal/analysis/analysistest"
	"bluefi/internal/analysis/stdchecks"
)

func TestNilness(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), stdchecks.Nilness, "nilness/a")
}

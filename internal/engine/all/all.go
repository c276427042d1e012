// Package all registers every community-detection algorithm in the
// repository with the engine registry. Import it for its side effect:
//
//	import _ "nulpa/internal/engine/all"
//
// After the import, engine.List() names eleven detectors — nulpa,
// nulpa-direct, nulpa-sharded, flpa, plp, gvelpa, gunrock, louvain, slpa,
// copra, labelrank — and engine.MustGet dispatches to any of them; for the
// baselines the registered detector is the only entry point. This package
// is the only place that may import the algorithm packages together;
// everything else reaches them through the registry (enforced by
// `make lint`).
package all

import (
	_ "nulpa/internal/flpa"
	_ "nulpa/internal/gunrock"
	_ "nulpa/internal/gvelpa"
	_ "nulpa/internal/louvain"
	_ "nulpa/internal/nulpa"
	_ "nulpa/internal/plp"
	_ "nulpa/internal/variants"
)

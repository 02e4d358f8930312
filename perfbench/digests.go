package main

// defaultSeed is the seed a run uses when none is given; heldOutSeed is
// kept out of tuning, for checking a claimed change on inputs it was not
// developed against.
const (
	defaultSeed int64 = 1
	heldOutSeed int64 = 7
)

// pinnedDigests are the rendered-table digests of the sweep workloads for
// the default and held-out seeds. A pass whose tables differ fails. The
// tables are a pure function of the seed: they do not depend on worker
// count, tracing or timing.
var pinnedDigests = map[string]map[int64]string{
	"sweep-sim":    {defaultSeed: "7148184348e14414", heldOutSeed: "f24c3f46f75a7ae7"},
	"sweep-bounds": {defaultSeed: "3f1001fc45e9d097", heldOutSeed: "b00d04ea1f8ba43b"},
}

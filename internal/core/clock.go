package core

import "repro/internal/clock"

// Clock aliases clock.Clock so each variant's struct can declare its
// Clk field without every file importing the clock package. The clock
// is set at construction (nil = wall clock) and paces waiting — park
// sleeps and bounded-acquisition deadlines — on the slow paths only;
// the uncontended fast paths never touch it.
type Clock = clock.Clock

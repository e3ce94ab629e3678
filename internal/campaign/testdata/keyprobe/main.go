// Command keyprobe prints the result-store key of the default CDNA
// transmit configuration as computed by the running binary. The cache
// tests build it twice with different -ldflags -X main.variant values:
// the two binaries differ only in that string, yet must key apart.
package main

import (
	"fmt"
	"os"

	"cdna/internal/bench"
	"cdna/internal/campaign"
)

var variant = "a"

func main() {
	key, err := campaign.ResultKey(bench.DefaultConfig(bench.ModeCDNA, bench.NICRice, bench.Tx))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "variant", variant)
	fmt.Println(key)
}

// Command analyze runs the Section 3.2 traffic analyzer over a pcap trace
// and prints the Section 3.3 measurements: the aggregate summary, the
// Table 2 protocol distribution, the Figure 2/3 port CDFs, the Figure 4
// lifetime distribution, and the Figure 5 out-in delay distribution.
//
// Usage:
//
//	analyze -i trace.pcap [-net 140.112.0.0/16] [-verify]
package main

import (
	"flag"
	"fmt"
	"os"

	"p2pbound/internal/experiments"
	"p2pbound/internal/packet"
	"p2pbound/internal/pcap"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		in      = fs.String("i", "", "input pcap path (required)")
		netCIDR = fs.String("net", "140.112.0.0/16", "client network CIDR")
		verify  = fs.Bool("verify", true, "skip packets with bad checksums, as the paper's analyzer does")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -i input path")
	}
	clientNet, err := packet.ParseNetwork(*netCIDR)
	if err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	packets, err := pcap.ReadAll(f, clientNet, *verify)
	if err != nil {
		return err
	}
	fmt.Printf("analyze: %d packets from %s\n\n", len(packets), *in)

	suite, err := experiments.SuiteFromPackets(packets, clientNet)
	if err != nil {
		return err
	}
	fmt.Println(suite.RunSummary().Render())
	fmt.Println(suite.RunT2().Render())
	fmt.Println(suite.RunF2().Render())
	fmt.Println(suite.RunF3().Render())
	fmt.Println(suite.RunF4().Render())
	fmt.Println(suite.RunF5().Render())
	return nil
}

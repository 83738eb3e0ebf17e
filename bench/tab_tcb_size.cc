/**
 * @file
 * §VI-F — TCB size analysis: lines of code of the trusted NPU
 * Monitor components in this repository versus the untrusted NPU
 * software stack the design keeps out of the TCB (reference figures
 * from the paper).
 */

#include <cstdio>
#include <filesystem>

#include "bench_util.hh"
#include "core/tcb_inventory.hh"
#include "json_writer.hh"

using namespace snpu;
using namespace snpu::bench;

int
main(int argc, char **argv)
{
    std::string json_path;
    ArgSpec args("tab_tcb_size");
    args.json(&json_path).parse(argc, argv);

    // Locate the source tree whether we run from the repo root or
    // from inside build/. Without it there is nothing to measure.
    std::string root;
    for (const char *candidate :
         {"src", "../src", "../../src", "../../../src"}) {
        if (std::filesystem::exists(std::string(candidate) +
                                    "/tee/monitor")) {
            root = candidate;
            break;
        }
    }
    if (root.empty()) {
        args.fail("no source tree (src/tee/monitor) in the working "
                  "directory or up to three levels above it; run from "
                  "the repository or its build tree");
    }

    banner("TCB size (§VI-F)",
           "Trusted computing base of the NPU software stack");

    const auto inventory = tcbInventory(root);
    Table table({"component", "LoC", "trusted", "source"});
    for (const auto &c : inventory) {
        table.row({c.name, big(c.loc), c.trusted ? "yes" : "no",
                   c.measured ? "measured (this repo)"
                              : "paper reference"});
    }
    table.print();

    std::printf("total trusted LoC (measured): %s\n",
                big(trustedLoc(inventory)).c_str());
    std::printf("(paper: the NPU Monitor is 12,854 LoC — 10,781 of "
                "it crypto — against 300k+ LoC frameworks and a "
                "631k LoC driver left untrusted)\n");

    JsonReport report("tab_tcb_size");
    report.table("tcb", table);
    report.metric("trusted_loc",
                  static_cast<double>(trustedLoc(inventory)));
    return report.write(json_path) ? 0 : 1;
}

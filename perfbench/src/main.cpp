// perfbench_driver: runs one benchmark workload and prints its raw record
// (one JSON object) on stdout. perfbench/run.py builds this binary, runs
// it, checks the outputs and derives the metrics. Trace mode (--trace 1)
// runs only in perfbench_driver_traced, built from the same sources.
//
//   perfbench_driver run <fleet-v2v|platoon-dual-bus|campaign-matrix>
//       --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//       [--campaign <file>] [--corpus <dir>]
//   perfbench_driver cell -         campaign worker: one cell block on stdin,
//                                   its verdict JSON on stdout
//   perfbench_driver lint <file>    lint a campaign file (exit 0: clean)

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include <sys/resource.h>

#include "campaign/campaign_spec.hpp"
#include "campaign/runner.hpp"
#include "probe.hpp"

namespace {

int usage() {
    std::cerr << "usage: perfbench_driver run <workload> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--campaign <file>] "
                 "[--corpus <dir>]\n"
                 "       perfbench_driver cell -\n"
                 "       perfbench_driver lint <campaign-file>\n";
    return 2;
}

int run_worker_cell() {
    std::ostringstream text;
    text << std::cin.rdbuf();
    try {
        const auto cell = sa::campaign::CellConfig::parse(text.str());
        std::cout << sa::campaign::run_cell(cell).json() << '\n';
        return 0;
    } catch (const sa::campaign::CampaignParseError& error) {
        std::cerr << "perfbench_driver: cell line " << error.line() << ": "
                  << error.what() << '\n';
        return 2;
    }
}

} // namespace

int main(int argc, char** argv) {
    // The campaign's crash probe aborts a worker on purpose: no core files.
    const rlimit no_core{0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);

    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    try {
        if (command == "cell" && argc == 3 && std::string(argv[2]) == "-") {
            return run_worker_cell();
        }
        if (command == "lint" && argc == 3) {
            return perfbench::lint_campaign_file(argv[2]);
        }
        if (command != "run" || argc < 3) {
            return usage();
        }
        perfbench::Options options;
        options.workload = argv[2];
        options.campaign = "perfbench/campaign-matrix.campaign";
        options.corpus = "fixtures/corpus";
        for (int i = 3; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = value == "1";
            } else if (flag == "--trace-out") {
                options.trace_out = value;
            } else if (flag == "--campaign") {
                options.campaign = value;
            } else if (flag == "--corpus") {
                options.corpus = value;
            } else {
                return usage();
            }
        }
        if (options.trace && options.trace_out.empty()) {
            return usage();
        }
#ifndef PERFBENCH_TRACED
        if (options.trace) {
            std::cerr << "perfbench_driver: --trace 1 needs perfbench_driver_traced\n";
            return 2;
        }
#endif
        std::error_code ec;
        const std::filesystem::path self = std::filesystem::read_symlink("/proc/self/exe", ec);
        if (ec) {
            std::cerr << "perfbench_driver: cannot resolve /proc/self/exe\n";
            return 2;
        }
        // Campaign workers always run the untraced binary, which links the
        // stock allocator.
        options.worker_exe = (self.parent_path() / "perfbench_driver").string();

        std::string body;
        if (options.workload == "fleet-v2v") {
            body = perfbench::run_fleet(options);
        } else if (options.workload == "platoon-dual-bus") {
            body = perfbench::run_platoon(options);
        } else if (options.workload == "campaign-matrix") {
            body = perfbench::run_campaign(options);
        } else {
            std::cerr << "perfbench_driver: unknown workload " << options.workload << '\n';
            return 2;
        }
        perfbench::Json build;
        build.str("compiler", __VERSION__)
            .str("flags", PERFBENCH_CXX_FLAGS)
            .str("build_type", PERFBENCH_BUILD_TYPE);
        std::cout << perfbench::Json()
                         .raw("build", build.done())
                         .raw("record", body)
                         .done()
                  << std::endl;
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "perfbench_driver: " << error.what() << '\n';
        return 1;
    }
}

// e2e_bench: the end-to-end benchmark of the AQP++ serving stack.
//
//   e2e_bench --workload table1_sum|table1_avg|shard4_sample|ingest_1w2r
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--git-sha SHA] [--source-hash HASH]
//
// Runs one workload over loopback TCP, checks every answer, and prints the
// machine block and then one JSON result line as the last line of stdout.
// --trace 1 additionally replays the workload's inputs through each layer
// and reports the per-layer metrics instead. run.py builds this binary and
// forwards its arguments; see README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload "
               "table1_sum|table1_avg|shard4_sample|ingest_1w2r "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--git-sha SHA] [--source-hash HASH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqpp::e2e;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--git-sha") {
      config.git_sha = value;
    } else if (flag == "--source-hash") {
      config.source_hash = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.seconds <= 0) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir + "/results", ec);

  RunReport report;
  aqpp::Status st;
  if (config.workload == "table1_sum") {
    st = RunTable1(config, aqpp::AggregateFunction::kSum, &report);
  } else if (config.workload == "table1_avg") {
    st = RunTable1(config, aqpp::AggregateFunction::kAvg, &report);
  } else if (config.workload == "shard4_sample") {
    st = RunShard4(config, &report);
  } else if (config.workload == "ingest_1w2r") {
    st = RunIngest(config, &report);
  } else {
    return Usage(argv[0]);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  st = EmitResult(config, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

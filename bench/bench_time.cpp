// Section 4.2: the Time dataset. 10,000 random timestamps split into 2-char
// hrs/mins/secs source columns (+ noise); target = hrs||mins||secs. The
// paper recovers time = hour[1-2] + minutes[1-2] + seconds[1-2] and emits
// the corresponding SQL, despite the heavily overlapping value domains.
#include "bench/bench_util.h"
#include "vm/compiler.h"
#include "vm/executor.h"

using namespace mcsm;

int main() {
  bench::Banner("Section 4.2", "Time dataset: hhmmss from hrs/mins/secs columns");
  datagen::TimeOptions options;
  options.rows = bench::ScaledRows(10000, 1.0);
  datagen::Dataset data = datagen::MakeTimeDataset(options);

  bench::Stopwatch watch;
  auto d = core::DiscoverTranslation(data.source, data.target,
                                     data.target_column, {});
  if (!d.ok()) {
    std::printf("search failed: %s\n", d.status().ToString().c_str());
    return 1;
  }
  bench::ReportDiscovery(data, *d, watch.Seconds());
  std::printf("# paper: time = hour[1-2] + minutes[1-2] + seconds[1-2]\n");

  // Run the emitted SQL end to end: parse it back, compile, translate.
  auto query = core::SqlEmitter::FromSql(d->sql, data.source.schema());
  if (!query.ok()) {
    std::printf("emitted sql failed: %s\n", query.status().ToString().c_str());
    return 1;
  }
  auto program = vm::CompileFormula(query->formula, data.source.schema());
  if (!program.ok()) {
    std::printf("compile failed: %s\n", program.status().ToString().c_str());
    return 1;
  }
  auto result = vm::Translate(*program, data.source);
  if (!result.ok()) {
    std::printf("translate failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("sql executed: %zu rows translated by the parsed-back program\n",
              result->output_rows());
  return 0;
}

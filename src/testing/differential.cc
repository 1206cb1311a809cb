#include "testing/differential.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "testing/targets.h"

namespace strdb {
namespace testgen {

DiffTarget::CasePtr ShrinkCase(const DiffTarget& target,
                               DiffTarget::CasePtr start, int64_t max_steps,
                               int64_t* steps) {
  int64_t used = 0;
  auto diverges = [&](const DiffTarget::Case& c) {
    ++used;
    return target.Run(c).has_value();
  };
  if (max_steps < 1 || !diverges(*start)) {
    if (steps) *steps = used;
    return start;
  }
  int64_t best_size = target.CaseSize(*start);
  bool progressed = true;
  while (progressed && used < max_steps) {
    progressed = false;
    for (DiffTarget::CasePtr& cand : target.ShrinkCandidates(*start)) {
      if (used >= max_steps) break;
      int64_t size = target.CaseSize(*cand);
      if (size >= best_size) continue;  // only strictly-smaller: terminates
      if (!diverges(*cand)) continue;
      start = std::move(cand);
      best_size = size;
      progressed = true;
      break;  // re-derive candidates from the new, smaller case
    }
  }
  if (steps) *steps = used;
  return start;
}

std::string ConformanceReport::ToString() const {
  std::ostringstream out;
  out << "target " << target << ": " << runs << " runs, " << divergences
      << " divergences";
  if (divergences > 0) {
    out << "\n  case seed " << case_seed << ", size " << size_before_shrink
        << " -> " << size_after_shrink << " (" << shrink_steps
        << " shrink steps)";
    if (!repro_path.empty()) out << "\n  reproducer: " << repro_path;
    out << "\n  " << summary;
  }
  return out.str();
}

namespace {

Result<std::string> WriteReproducerFile(const std::string& dir,
                                        const std::string& target_name,
                                        uint64_t seed,
                                        const std::string& contents) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("mkdir " + dir + ": " + ec.message());
  }
  std::string path =
      dir + "/" + target_name + "-" + std::to_string(seed) + ".repro";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  if (!out) {
    return Status::Internal("write " + path + " failed");
  }
  return path;
}

}  // namespace

Result<ConformanceReport> RunConformance(const DiffTarget& target,
                                         const ConformanceOptions& options) {
  ConformanceReport report;
  report.target = target.name();
  for (int64_t i = 0; i < options.runs; ++i) {
    uint64_t case_seed = options.seed + static_cast<uint64_t>(i);
    RngSource rand(case_seed);
    DiffTarget::CasePtr c = target.Generate(rand);
    ++report.runs;
    std::optional<Divergence> divergence = target.Run(*c);
    if (!divergence) continue;

    report.divergences = 1;
    report.case_seed = case_seed;
    report.size_before_shrink = target.CaseSize(*c);
    if (options.shrink) {
      c = ShrinkCase(target, std::move(c), options.max_shrink_steps,
                     &report.shrink_steps);
      divergence = target.Run(*c);
    }
    report.size_after_shrink = target.CaseSize(*c);
    report.summary = divergence ? divergence->summary
                                : "(divergence vanished after shrinking)";
    if (!options.repro_dir.empty()) {
      STRDB_ASSIGN_OR_RETURN(
          report.repro_path,
          WriteReproducerFile(options.repro_dir, target.name(), case_seed,
                              FormatReproducer(target.name(), case_seed,
                                               target.Serialize(*c))));
    }
    return report;  // one minimised, written-out bug at a time
  }
  return report;
}

std::string FormatReproducer(const std::string& target_name, uint64_t seed,
                             const std::string& case_text) {
  return "strdbrepro 1\ntarget " + target_name + "\nseed " +
         std::to_string(seed) + "\n" + case_text;
}

Result<Reproducer> ParseReproducer(const std::string& file_text) {
  std::istringstream in(file_text);
  std::string header;
  if (!std::getline(in, header) || header != "strdbrepro 1") {
    return Status::InvalidArgument("not a reproducer file (bad header '" +
                                   header + "')");
  }
  Reproducer repro;
  std::string line;
  if (!std::getline(in, line) || line.rfind("target ", 0) != 0) {
    return Status::InvalidArgument("reproducer missing target line");
  }
  repro.target = line.substr(7);
  if (!std::getline(in, line) || line.rfind("seed ", 0) != 0) {
    return Status::InvalidArgument("reproducer missing seed line");
  }
  char* end = nullptr;
  std::string seed_text = line.substr(5);
  repro.seed = std::strtoull(seed_text.c_str(), &end, 10);
  if (end != seed_text.c_str() + seed_text.size() || seed_text.empty()) {
    return Status::InvalidArgument("bad reproducer seed '" + seed_text + "'");
  }
  std::ostringstream rest;
  rest << in.rdbuf();
  repro.case_text = rest.str();
  return repro;
}

Result<ConformanceReport> ReplayReproducer(const std::string& file_text) {
  STRDB_ASSIGN_OR_RETURN(Reproducer repro, ParseReproducer(file_text));
  const DiffTarget* target = FindTarget(repro.target);
  if (target == nullptr) {
    return Status::NotFound("no differential target named '" + repro.target +
                            "'");
  }
  STRDB_ASSIGN_OR_RETURN(DiffTarget::CasePtr c,
                         target->Deserialize(repro.case_text));
  ConformanceReport report;
  report.target = repro.target;
  report.case_seed = repro.seed;
  report.runs = 1;
  report.size_before_shrink = target->CaseSize(*c);
  report.size_after_shrink = report.size_before_shrink;
  if (std::optional<Divergence> divergence = target->Run(*c)) {
    report.divergences = 1;
    report.summary = divergence->summary;
  }
  return report;
}

const std::vector<const DiffTarget*>& AllTargets() {
  static const std::vector<const DiffTarget*>* const targets = [] {
    auto* v = new std::vector<const DiffTarget*>();
    v->push_back(new KernelDiffTarget());
    v->push_back(new DfaDiffTarget());
    v->push_back(new EngineDiffTarget());
    v->push_back(new RoundtripTarget());
    v->push_back(new StorageRecoverTarget());
    v->push_back(new PagerDiffTarget());
    v->push_back(new PlannerDiffTarget());
    v->push_back(new ServerDiffTarget());
    v->push_back(new QueryCacheDiffTarget());
    return v;
  }();
  return *targets;
}

const DiffTarget* FindTarget(const std::string& name) {
  for (const DiffTarget* target : AllTargets()) {
    if (target->name() == name) return target;
  }
  // The chaos target spawns real server processes, so it resolves by
  // name (reproducers, --target chaos) but stays out of AllTargets():
  // `--target all` must remain process-spawn-free.
  static const ChaosTarget* const chaos = new ChaosTarget();
  if (name == chaos->name()) return chaos;
  return nullptr;
}

}  // namespace testgen
}  // namespace strdb

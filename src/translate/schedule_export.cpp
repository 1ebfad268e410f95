#include "translate/schedule_export.hpp"

namespace ecsim::translate {

std::vector<obs::TimelineSlice> schedule_to_timeline(
    const aaa::AlgorithmGraph& alg, const aaa::ArchitectureGraph& arch,
    const aaa::Schedule& sched) {
  std::vector<obs::TimelineSlice> out;
  out.reserve(sched.ops().size() + sched.comms().size());
  for (aaa::ProcId p = 0; p < sched.num_procs(); ++p) {
    const std::string track = "proc/" + arch.processor(p).name;
    for (const std::size_t i : sched.ops_on(p)) {
      const aaa::ScheduledOp& so = sched.ops()[i];
      out.push_back(obs::TimelineSlice{
          track,
          alg.op(so.op).name,
          so.start,
          so.end,
          {{"op", static_cast<double>(so.op)}}});
    }
  }
  for (aaa::MediumId m = 0; m < sched.num_media(); ++m) {
    const std::string track = "medium/" + arch.medium(m).name;
    for (const std::size_t i : sched.comms_on(m)) {
      const aaa::ScheduledComm& sc = sched.comms()[i];
      const aaa::DataDep& dep = alg.dependencies()[sc.dep_index];
      out.push_back(obs::TimelineSlice{
          track,
          alg.op(dep.from).name + "->" + alg.op(dep.to).name,
          sc.start,
          sc.end,
          {{"hop", static_cast<double>(sc.hop_index)}, {"size", dep.size}}});
    }
  }
  return out;
}

}  // namespace ecsim::translate

// Reference model of LabFlow-1 semantics, computed from the generated event
// stream alone: most-recent values by valid time (late entries included),
// history order, state buckets in name order, sets and step-class
// evolution. It never reads the database; the only program outputs it takes
// are the object ids the program handed back for created materials, which
// it needs to state expected answers in the program's id space.
#ifndef LFBENCH_MODEL_H_
#define LFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "labbase/schema.h"
#include "labflow/events.h"
#include "workflow/graph.h"

namespace labflow::lfbench {

class Model {
 public:
  /// The schema the workflow graph installs.
  explicit Model(const workflow::WorkflowGraph& graph);

  /// Applies one update event. `created` is the id the program returned
  /// for a kCreateMaterial event (ignored otherwise).
  void Apply(const bench::Event& ev, Oid created);

  /// Expected digest of a query event's answer (Digest in stream.cc folds
  /// the program's answer the same way). `schema` only maps names to the
  /// program's numeric ids.
  uint64_t Expect(const bench::Event& ev, const labbase::Schema& schema) const;

  /// Names of the attributes ever tagged on `material`, sorted.
  std::vector<std::string> AttrsOf(const std::string& material) const;
  const std::vector<std::string>& material_names() const { return order_; }
  const std::map<std::string, std::vector<std::string>>& sets() const {
    return sets_;
  }
  const std::vector<std::string>& states() const { return states_; }

  /// Empty when `schema` holds exactly the step classes, latest attribute
  /// sets and version counts the stream's evolutions imply; otherwise a
  /// description of the first difference.
  std::string CheckEvolution(const labbase::Schema& schema) const;

 private:
  uint64_t MostRecent(const std::string& material,
                      const std::string& attr) const;
  uint64_t History(const std::string& material, const std::string& attr) const;
  uint64_t WorkQueue(const std::string& state) const;
  uint64_t CountInState(const std::string& state) const;
  uint64_t SetMembers(const std::string& set) const;
  uint64_t MaterialByName(const std::string& material,
                          const labbase::Schema& schema) const;

  struct AttrState {
    std::vector<std::pair<int64_t, Value>> history;  // in entry order
    Value most_recent;
    int64_t most_recent_time = 0;
  };
  struct Material {
    std::string cls;
    std::string state;
    int64_t created = 0;
    int64_t state_time = 0;
    Oid oid;
    std::map<std::string, AttrState> attrs;
  };
  struct StepClass {
    /// Every attribute set the class has had, oldest first.
    std::vector<std::set<std::string>> history;
  };

  void DefineStepClass(const std::string& name,
                       const std::vector<std::string>& attrs);

  std::unordered_map<std::string, Material> materials_;
  std::vector<std::string> order_;  // creation order
  std::map<std::string, std::set<std::string>> by_state_;
  std::map<std::string, std::vector<std::string>> sets_;
  std::map<std::string, StepClass> step_classes_;
  std::vector<std::string> states_;
};

}  // namespace labflow::lfbench

#endif  // LFBENCH_MODEL_H_

#include "model.h"

#include <algorithm>
#include <numeric>

#include "common.h"

namespace labflow::lfbench {

using bench::Event;

Model::Model(const workflow::WorkflowGraph& graph) : states_(graph.states) {
  for (const std::string& state : graph.states) by_state_[state];
  for (const workflow::Transition& t : graph.transitions) {
    std::vector<std::string> attrs;
    for (const workflow::ResultSpec& r : t.results) attrs.push_back(r.attr);
    DefineStepClass(t.step_name, attrs);
  }
}

void Model::DefineStepClass(const std::string& name,
                            const std::vector<std::string>& attrs) {
  std::set<std::string> set(attrs.begin(), attrs.end());
  StepClass& cls = step_classes_[name];
  // A class evolves only to an attribute set it has never had; its latest
  // version is the newest set.
  auto it = std::find(cls.history.begin(), cls.history.end(), set);
  if (it == cls.history.end()) cls.history.push_back(std::move(set));
}

void Model::Apply(const Event& ev, Oid created) {
  switch (ev.type) {
    case Event::Type::kCreateMaterial: {
      Material& m = materials_[ev.name];
      m.cls = ev.material_class;
      m.state = ev.state;
      m.created = ev.time.micros;
      m.state_time = ev.time.micros;
      m.oid = created;
      order_.push_back(ev.name);
      by_state_[ev.state].insert(ev.name);
      return;
    }
    case Event::Type::kRecordStep: {
      const int64_t t = ev.time.micros;
      for (const bench::EffectSpec& effect : ev.effects) {
        Material& m = materials_.at(effect.material);
        for (const bench::TagSpec& tag : effect.tags) {
          AttrState& a = m.attrs[tag.attr];
          a.history.emplace_back(t, tag.value);
          // Valid time decides; a tie goes to the later entry.
          if (a.history.size() == 1 || t >= a.most_recent_time) {
            a.most_recent = tag.value;
            a.most_recent_time = t;
          }
        }
        if (!effect.new_state.empty() && t >= m.state_time) {
          by_state_[m.state].erase(effect.material);
          by_state_[effect.new_state].insert(effect.material);
          m.state = effect.new_state;
          m.state_time = t;
        }
      }
      return;
    }
    case Event::Type::kCreateSet:
      sets_[ev.name];
      return;
    case Event::Type::kAddSetMembers: {
      std::vector<std::string>& members = sets_[ev.name];
      members.insert(members.end(), ev.members.begin(), ev.members.end());
      return;
    }
    case Event::Type::kEvolveStepClass:
      DefineStepClass(ev.step_class, ev.attrs);
      return;
    default:
      return;
  }
}

uint64_t Model::MostRecent(const std::string& material,
                           const std::string& attr) const {
  const Material& m = materials_.at(material);
  uint64_t h = kFnvOffset;
  Fold(&h, m.oid.raw);
  auto it = m.attrs.find(attr);
  Fold(&h, it == m.attrs.end() ? kNotFoundDigest
                               : HashValue(it->second.most_recent));
  return h;
}

uint64_t Model::History(const std::string& material,
                        const std::string& attr) const {
  const Material& m = materials_.at(material);
  uint64_t h = kFnvOffset;
  Fold(&h, m.oid.raw);
  HistoryDigest d;
  auto it = m.attrs.find(attr);
  if (it != m.attrs.end()) {
    std::vector<std::pair<int64_t, Value>> hist = it->second.history;
    std::stable_sort(hist.begin(), hist.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [time, value] : hist) d.Add(time, value);
  }
  Fold(&h, d.Final());
  return h;
}

uint64_t Model::WorkQueue(const std::string& state) const {
  const std::set<std::string>& names = by_state_.at(state);
  uint64_t h = kFnvOffset;
  Fold(&h, names.size());
  for (const std::string& name : names) Fold(&h, materials_.at(name).oid.raw);
  size_t inspected = 0;
  for (const std::string& name : names) {
    if (inspected++ == kWorkQueueHead) break;
    Fold(&h, HashBytes(name));
  }
  return h;
}

uint64_t Model::CountInState(const std::string& state) const {
  uint64_t h = kFnvOffset;
  Fold(&h, by_state_.at(state).size());
  return h;
}

uint64_t Model::SetMembers(const std::string& set) const {
  auto it = sets_.find(set);
  if (it == sets_.end()) return kNotFoundDigest;
  uint64_t h = kFnvOffset;
  Fold(&h, it->second.size());
  for (const std::string& name : it->second) {
    Fold(&h, materials_.at(name).oid.raw);
  }
  return h;
}

uint64_t Model::MaterialByName(const std::string& material,
                               const labbase::Schema& schema) const {
  const Material& m = materials_.at(material);
  auto id = [](auto result) -> uint64_t {
    return result.ok() ? static_cast<uint64_t>(result.value()) : ~0ULL;
  };
  uint64_t attr_sum = 0;
  for (const auto& [attr, state] : m.attrs) {
    attr_sum += id(schema.AttributeByName(attr));
  }
  return MaterialDigest(m.oid, material, id(schema.MaterialClassByName(m.cls)),
                        id(schema.StateByName(m.state)), m.created,
                        m.attrs.size(), attr_sum);
}

uint64_t Model::Expect(const Event& ev, const labbase::Schema& schema) const {
  switch (ev.type) {
    case Event::Type::kQueryMostRecent:
      return MostRecent(ev.name, ev.attr);
    case Event::Type::kQueryHistory:
      return History(ev.name, ev.attr);
    case Event::Type::kQueryWorkQueue:
      return WorkQueue(ev.state);
    case Event::Type::kQueryCountState:
      return CountInState(ev.state);
    case Event::Type::kQuerySetMembers:
      return SetMembers(ev.name);
    case Event::Type::kQueryMaterialByName:
      return MaterialByName(ev.name, schema);
    default:
      return 0;
  }
}

std::vector<std::string> Model::AttrsOf(const std::string& material) const {
  std::vector<std::string> out;
  for (const auto& [attr, state] : materials_.at(material).attrs) {
    out.push_back(attr);
  }
  return out;
}

std::string Model::CheckEvolution(const labbase::Schema& schema) const {
  for (const auto& [name, cls] : step_classes_) {
    auto id = schema.StepClassByName(name);
    if (!id.ok()) return "step class " + name + " missing";
    auto versions = schema.VersionCount(id.value());
    if (!versions.ok() || versions.value() != cls.history.size()) {
      return "step class " + name + ": expected " +
             std::to_string(cls.history.size()) + " versions";
    }
    auto latest = schema.LatestVersion(id.value());
    if (!latest.ok()) return "step class " + name + ": no latest version";
    auto attrs = schema.VersionAttrs(id.value(), latest.value());
    if (!attrs.ok()) return "step class " + name + ": no attributes";
    std::set<std::string> got;
    for (labbase::AttrId a : attrs.value()) {
      auto attr_name = schema.AttributeName(a);
      got.insert(attr_name.ok() ? attr_name.value() : "?");
    }
    if (got != cls.history.back()) {
      return "step class " + name + ": latest attribute set differs";
    }
  }
  return "";
}

}  // namespace labflow::lfbench

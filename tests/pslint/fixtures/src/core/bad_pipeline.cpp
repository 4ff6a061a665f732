// Fixture for the shared pipeline stages: a Pipeline stage is steady-state
// code even though no router loop is defined around it, so unreserved
// growth inside one fires; a call to a stage is not a definition.
#include <vector>

struct Chunk {
  std::vector<int> flagged;
  std::vector<int> verdicts;
};

class Pipeline {
 public:
  void admit(Chunk& chunk);
  void apply(Chunk& chunk);
};

void Pipeline::admit(Chunk& chunk) {
  chunk.verdicts.reserve(64);  // warms `verdicts`
}

void Pipeline::apply(Chunk& chunk) {
  chunk.verdicts.push_back(0);  // ok: reserved in admit()
  chunk.flagged.push_back(1);   // FIRES: never reserved in this file
}

void drive(Pipeline& pipeline, Chunk& chunk) {
  pipeline.apply(chunk);        // a call, not a stage body
  chunk.flagged.push_back(2);   // ok: drive() is not steady-state
}

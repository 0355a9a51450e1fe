#include "cm5/sim/golden_guard.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "cm5/sim/exec_backend.hpp"

namespace cm5::sim {
namespace {

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

bool golden_regen_requested() {
  if (!env_set("CM5_REGEN_GOLDEN")) return false;

  const char* reason = nullptr;
  if (env_set("CM5_EXEC_THREADS")) {
    reason = "CM5_EXEC_THREADS selects the thread-oracle backend";
  } else if (execution_lanes() > 1) {
    reason = "CM5_LANES selects multi-lane execution";
  } else if (execution_model_pinned_to_threads()) {
    reason = "this build pins execution to threads (sanitizer)";
  }
  if (reason != nullptr) {
    throw std::runtime_error(
        std::string("CM5_REGEN_GOLDEN refused: ") + reason +
        "; goldens must be regenerated under the default configuration "
        "(unset CM5_EXEC_THREADS/CM5_LANES and use a "
        "plain build)");
  }
  return true;
}

}  // namespace cm5::sim

#include "paper/paper_example.h"

#include <cstdlib>

namespace ucr::core {

namespace {

void CheckOk(const Status& status) {
  if (!status.ok()) std::abort();  // Fixture is static; cannot fail.
}

PaperExample Build(bool referee_extension) {
  graph::DagBuilder builder;
  // Declare in S1..S8, User order so ids are stable and readable.
  for (const char* name :
       {"S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "User"}) {
    builder.AddNode(name);
  }
  CheckOk(builder.AddEdge("S1", "S3"));
  CheckOk(builder.AddEdge("S2", "S3"));
  CheckOk(builder.AddEdge("S2", "User"));
  CheckOk(builder.AddEdge("S3", "S4"));
  CheckOk(builder.AddEdge("S3", "S5"));
  CheckOk(builder.AddEdge("S5", "User"));
  CheckOk(builder.AddEdge("S6", "S5"));
  CheckOk(builder.AddEdge("S6", "User"));
  CheckOk(builder.AddEdge("S4", "S7"));
  CheckOk(builder.AddEdge("S4", "S8"));
  if (referee_extension) {
    CheckOk(builder.AddEdge("S1", "S2"));
  }
  auto dag = std::move(builder).Build();
  if (!dag.ok()) std::abort();

  PaperExample ex;
  ex.dag = std::move(dag).value();
  auto obj = ex.eacm.InternObject("obj");
  auto read = ex.eacm.InternRight("read");
  if (!obj.ok() || !read.ok()) std::abort();
  ex.obj = *obj;
  ex.read = *read;
  CheckOk(ex.eacm.Set(ex.dag.FindNode("S2"), ex.obj, ex.read,
                      acm::Mode::kPositive));
  CheckOk(ex.eacm.Set(ex.dag.FindNode("S4"), ex.obj, ex.read,
                      acm::Mode::kPositive));
  CheckOk(ex.eacm.Set(ex.dag.FindNode("S5"), ex.obj, ex.read,
                      acm::Mode::kNegative));
  if (referee_extension) {
    CheckOk(ex.eacm.Set(ex.dag.FindNode("S1"), ex.obj, ex.read,
                        acm::Mode::kPositive));
  }
  ex.user = ex.dag.FindNode("User");
  return ex;
}

}  // namespace

PaperExample MakePaperExample() { return Build(/*referee_extension=*/false); }

PaperExample MakeRefereeExample() { return Build(/*referee_extension=*/true); }

}  // namespace ucr::core

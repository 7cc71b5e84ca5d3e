package repro.stream

import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite
import repro.core.HistApprox
import repro.stream.GoldenStreams.Case

/** Differential guard: HistApprox, BasicReduction, Greedy and Random must
  * reproduce, on every step of the [[GoldenStreams]], the seeds, value and
  * cumulative oracle calls recorded in `golden-steps.tsv` before the trackers
  * moved to one shared expiry-annotated graph; DIM, whose rows were appended
  * later, must reproduce its own the same way. Greedy's rows were re-recorded
  * once CELF stopped adding a zero-gain seed: each only lost trailing seeds,
  * with value and cumulative calls unchanged. HistApprox's rows were
  * re-recorded once it stopped creating instances that ReduceRedundancy kills
  * in the same pass: each keeps t, seeds and value, and its cumulative calls
  * are at most the old ones (checked by `tools/check_golden.py`).
  */
class GoldenStepSpec extends AnyFunSuite {

  private lazy val golden: Seq[String] = {
    val src = Source.fromResource("golden-steps.tsv")
    try src.getLines().toVector
    finally src.close()
  }

  GoldenStreams.cases.foreach { c =>
    test(s"${c.name}: every tracker's step records equal the recorded ones") {
      val want = golden.filter(_.startsWith(c.name + "\t"))
      val got  = GoldenStreams.records(c)
      assert(want.size == got.size && want.nonEmpty)
      got.zip(want).foreach { case (g, w) => assert(g == w) }
    }
  }

  private def anyBatch(p: (Seq[repro.tdn.TimedEdge], Case) => Boolean): Boolean =
    GoldenStreams.cases.exists(c => c.batches.steps.exists(b => p(b, c)))

  test("the streams hold repeated pairs, self-loops, lifetimes above L and empty steps") {
    assert(anyBatch((b, _) => b.groupBy(e => (e.u, e.v)).values.exists(_.map(_.lifetime).distinct.size > 1)))
    assert(anyBatch((b, _) => b.exists(e => e.u == e.v)))
    assert(anyBatch((b, c) => b.exists(_.lifetime > c.maxL)))
    assert(anyBatch((b, _) => b.isEmpty))
  }

  test("HistApprox creates instances from a successor on every stream") {
    GoldenStreams.cases.foreach { c =>
      val h       = new HistApprox(GoldenStreams.k, GoldenStreams.eps, c.maxL, c.batches.universe)
      var created = 0
      c.batches.steps.foreach { batch =>
        val before = h.indices
        h.observe(batch)
        // Lifetime groups are handled in increasing order and the largest
        // index is never pruned, so a new index below an old one was created
        // while that larger instance existed: a copy of its successor.
        created += h.indices.count(i => !before.contains(i) && before.exists(_ > i))
        h.endStep()
      }
      assert(created > 0, c.name)
    }
  }
}

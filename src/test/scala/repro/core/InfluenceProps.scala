package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestData

/** ScalaCheck properties for Theorem 1: f_t is a normalized monotone
  * submodular set function on any TDN snapshot. Runs under sbt's native
  * ScalaCheck test framework (no Spark needed).
  */
object InfluenceProps extends Properties("InfluenceSpread") {

  private val n = 18

  private val graphGen: Gen[Digraph] =
    for {
      m    <- Gen.choose(0, 50)
      seed <- Gen.choose(0L, 1000000L)
    } yield TestData.digraphOf(n, TestData.randomEdges(n, m, seed))

  private val setGen: Gen[Set[Int]] =
    Gen.someOf(0 until n).map(_.toSet)

  property("normalized: f(∅) = 0") = Prop.forAll(graphGen) { g =>
    g.spreadOf(Nil) == 0
  }

  property("monotone: S ⊆ T ⇒ f(S) ≤ f(T)") =
    Prop.forAll(graphGen, setGen, setGen) { (g, a, b) =>
      val s = a
      val t = a ++ b
      g.spreadOf(s.toSeq) <= g.spreadOf(t.toSeq)
    }

  property("submodular: f(S+v) − f(S) ≥ f(T+v) − f(T) for S ⊆ T, v ∉ T") =
    Prop.forAll(graphGen, setGen, setGen, Gen.choose(0, n - 1)) { (g, a, b, v) =>
      val s = a - v
      val t = (a ++ b) - v
      val gainS = g.spreadOf((s + v).toSeq) - g.spreadOf(s.toSeq)
      val gainT = g.spreadOf((t + v).toSeq) - g.spreadOf(t.toSeq)
      gainS >= gainT
    }

  property("f(S) ≥ |S| (each seed reaches itself)") =
    Prop.forAll(graphGen, setGen) { (g, s) =>
      g.spreadOf(s.toSeq) >= s.size
    }

  property("f(S ∪ T) ≤ f(S) + f(T) (subadditivity)") =
    Prop.forAll(graphGen, setGen, setGen) { (g, s, t) =>
      g.spreadOf((s ++ t).toSeq) <= g.spreadOf(s.toSeq) + g.spreadOf(t.toSeq)
    }

  property("adding an edge never decreases f (ADN property)") =
    Prop.forAll(graphGen, setGen, Gen.choose(0, n - 1), Gen.choose(0, n - 1)) { (g, s, u, v) =>
      val before = g.spreadOf(s.toSeq)
      g.addEdge(u, v, Int.MaxValue)
      g.spreadOf(s.toSeq) >= before
    }
}

package repro.experiments

import repro.stream.InteractionStreams
import repro.stream.InteractionStreams.StreamSpec

/** Parameters shared by several exhibits' protocols. The protocols themselves
  * are the default arguments of the `Experiments` functions, which the jobs
  * and the benches both call, so the two agree by construction.
  *
  * The decay rate p targets a moderately dense alive graph (alive edges ≈
  * perStep / p comparable to the node universe), mirroring the sparsity
  * regime of the paper's runs (their p = 0.001 at 1 edge/step).
  */
object Defaults {

  // L >> 1/p as in the paper (L = 10K at p = 0.001): truncation never binds.
  val maxL: Int = 5000

  /** Geometric decay rate, one for every dataset (paper: Geo(0.001)
    * truncated at L = 10K; ours is scaled so the alive graph holds a few
    * hundred interactions at 1/step).
    */
  val p: Double = 0.002

  /** LBSN datasets (Fig. 7 uses these two, as the paper does). */
  val lbsn: Seq[StreamSpec] = Seq(InteractionStreams.brightkite, InteractionStreams.gowalla)

  /** The two Twitter datasets (Figs. 11–12 sweep these). */
  val twitter: Seq[StreamSpec] = Seq(InteractionStreams.twitterHiggs, InteractionStreams.twitterHK)

  /** The four non-bipartite datasets used for the heavier sweeps. */
  val social: Seq[StreamSpec] = Seq(
    InteractionStreams.twitterHiggs,
    InteractionStreams.twitterHK,
    InteractionStreams.stackOverflowC2Q,
    InteractionStreams.stackOverflowC2A,
  )
}

package kspbench

import repro.baselines.YenBaseline
import repro.core.{KspResult, WeightedGraph}
import scala.collection.mutable

/** Exactness oracle, run outside every timed window: each timed answer is
  * compared with whole-graph Yen on the weights of the epoch it was asked in.
  *
  * A query fails when its top-k distances differ from Yen's (absolute
  * tolerance 1e-6, a shorter list counts as a difference) or when it stopped
  * at the engine's iteration cap, which leaves its exactness unproven. Failed
  * queries stay in every latency sample. A wrong answer also makes the run
  * incorrect; a capped but right one does not.
  */
final class YenCheck(maxIterations: Int) {
  private var checkedN = 0L
  private var capStopsN = 0L
  private var failedN = 0L
  private var wrongN = 0L
  val yenMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty[Double]

  def check(results: Seq[KspResult], g: WeightedGraph): Unit = {
    val yen = new YenBaseline(g)
    // Outside every timed window, so the oracle may use the spare cores.
    val timed = YenCheck.parallel(results) { r =>
      val t0 = System.nanoTime()
      val expected = yen.query(r.query).paths.map(_.distance)
      (expected, Stats.ms(System.nanoTime() - t0))
    }
    results.zip(timed).foreach { case (r, (expected, ms)) =>
      yenMs += ms
      val got = r.paths.map(_.distance)
      val capped = r.iterations >= maxIterations
      val wrong = !YenCheck.sameDistances(got, expected)
      checkedN += 1
      if (capped) capStopsN += 1
      if (capped || wrong) failedN += 1
      if (wrong) {
        wrongN += 1
        Console.err.println(s"[kspbench] WRONG ANSWER${if (capped) " at the iteration cap" else ""}: ${r.query} " +
          s"after ${r.iterations} iterations: distances ${got.mkString(", ")}; Yen ${expected.mkString(", ")}")
      }
    }
  }

  def checked: Long = checkedN
  def failed: Long = failedN
  def capStops: Long = capStopsN
  def wrongAnswers: Long = wrongN
}

object YenCheck {
  val Tolerance = 1e-6
  val Threads = 4

  private lazy val pool = java.util.concurrent.Executors.newFixedThreadPool(Threads, (r: Runnable) => {
    val t = new Thread(r, "kspbench-yen")
    t.setDaemon(true)
    t
  })

  /** `f` over `xs` on [[Threads]] threads, results in input order. */
  def parallel[A, B](xs: Seq[A])(f: A => B): Seq[B] =
    xs.map(x => pool.submit(() => f(x))).map(_.get())

  def sameDistances(got: Seq[Double], expected: Seq[Double]): Boolean =
    got.size == expected.size && got.zip(expected).forall { case (a, b) => math.abs(a - b) <= Tolerance }
}

package repro.bench

import repro.SparkSpec

/** Shared plumbing for benchmark suites: wall-clock timing plus markdown
  * table output. Every suite prints paper-shaped rows to stdout. These are
  * shape checks, not a perf record: the measured benchmark is described in
  * kspbench/README.md.
  */
trait BenchHarness extends SparkSpec {

  def timeS[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def secondsOf(body: => Any): Double = timeS(body)._2

  /** Print one markdown table with a caption. */
  def table(caption: String, header: Seq[String], rows: Seq[Seq[Any]]): Unit = {
    println(s"\n#### $caption")
    println(header.mkString("| ", " | ", " |"))
    println(header.map(_ => "---").mkString("| ", " | ", " |"))
    rows.foreach(r => println(r.mkString("| ", " | ", " |")))
  }

  def fmt(d: Double): String = f"$d%.2f"
  def fmt3(d: Double): String = f"$d%.3f"
}
